(* EXP11: checkpoint durability overhead.

   The same solve workload runs with no store attached and with a
   checkpoint store at several [--checkpoint-every] settings. Each
   snapshot write is an encode + fsync + rename, so the interesting
   number is the wall-clock cost per decision call that durability
   adds — the price of being able to lose the process at any moment and
   resume from the last completed call.

   Snapshots land in a throwaway directory under [Filename.temp_dir];
   results also report the bytes the store accumulates (journal +
   snapshots), since disk footprint, not CPU, is the usual objection to
   checkpoint-every-call. *)

open Psdp_prelude
open Psdp_instances
open Psdp_engine
open Psdp_store

let mktempdir () =
  let path = Filename.temp_file "psdp_exp11" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let rec dir_bytes path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc n -> acc + dir_bytes (Filename.concat path n))
      0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

let workload ~quick =
  let rng = Rng.create 211 in
  let dim, n = if quick then (10, 4) else (16, 6) in
  let eps = if quick then 0.3 else 0.2 in
  let insts =
    [
      ("proj", fst (Known_opt.orthogonal_projectors ~rng ~dim ~n));
      ("rank1", fst (Known_opt.rank_one_orthonormal ~rng ~dim ~n));
      ("rand", Random_psd.factored ~rng ~dim ~n ());
    ]
  in
  (eps, insts)

let run_batch ~eps ~insts ~store ~checkpoint_every =
  let t0 = Timer.now () in
  let results =
    Engine.with_engine ~max_in_flight:1 ?store ~checkpoint_every (fun eng ->
        List.map
          (fun (id, inst) ->
            Engine.submit eng (Job.solve_spec ~id ~eps (Job.Inline inst)))
          insts
        |> List.map (Engine.await eng))
  in
  let elapsed = Timer.now () -. t0 in
  let calls =
    List.fold_left
      (fun acc (r : Job.result) ->
        match r.Job.outcome with
        | Job.Solved { decision_calls; _ } -> acc + decision_calls
        | _ -> acc)
      0 results
  in
  (elapsed, calls)

let run ~quick () =
  Bench_util.section "EXP11: checkpoint store overhead vs --checkpoint-every";
  let eps, insts = workload ~quick in
  Printf.printf "workload: %d solves at eps=%.2f\n" (List.length insts) eps;
  (* Warm the code paths once, then measure the undurable baseline. *)
  ignore (run_batch ~eps ~insts ~store:None ~checkpoint_every:1);
  let base_t, base_calls =
    run_batch ~eps ~insts ~store:None ~checkpoint_every:1
  in
  Printf.printf "%-18s %10s %8s %12s %10s\n" "config" "wall (s)" "calls"
    "us/call" "store (B)";
  Printf.printf "%-18s %10.4f %8d %12.1f %10s\n" "no store" base_t base_calls
    (1e6 *. base_t /. float_of_int (max 1 base_calls))
    "-";
  let everies = if quick then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  List.iter
    (fun every ->
      let dir = mktempdir () in
      Fun.protect
        ~finally:(fun () -> try rm_rf dir with _ -> ())
        (fun () ->
          match Store.open_store dir with
          | Error msg -> Printf.printf "store open failed: %s\n" msg
          | Ok store ->
              let t, calls =
                Fun.protect
                  ~finally:(fun () -> Store.close store)
                  (fun () ->
                    run_batch ~eps ~insts ~store:(Some store)
                      ~checkpoint_every:every)
              in
              let bytes = dir_bytes dir in
              Printf.printf "%-18s %10.4f %8d %12.1f %10d\n"
                (Printf.sprintf "every=%d" every)
                t calls
                (1e6 *. t /. float_of_int (max 1 calls))
                bytes;
              if base_t > 0.0 then
                Printf.printf "%-18s overhead: %+.1f%%\n" ""
                  (100.0 *. ((t /. base_t) -. 1.0))))
    everies;
  (base_t, base_calls)
