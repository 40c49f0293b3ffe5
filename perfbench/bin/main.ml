(* psdp benchmark: one run of one workload.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --run-dir DIR --state-dir DIR --cli PATH
              [--source DIGEST] [--rev REV] [--dirty 0|1]

   Prints a human-readable report, then, as its last line, one JSON
   object {"correct", "attempted", "failed", "metrics"}: the eight
   end-to-end metrics with --trace 0, every per-layer metric with
   --trace 1. perfbench/run.py builds the program and calls this. *)

open Psdp_prelude
open Psdpbench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     --run-dir DIR --state-dir DIR --cli PATH [--source D] [--rev R] [--dirty 0|1]";
  exit 2

let args =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  tbl

let arg ?default k =
  match (Hashtbl.find_opt args k, default) with
  | Some v, _ -> v
  | None, Some d -> d
  | None, None -> usage ()

let int_arg k = match int_of_string_opt (arg k) with Some n -> n | None -> usage ()

let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let json_metric (x : Outcome.metric) =
  (x.name, Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit_) ])

(* ---- determinism guard ----------------------------------------------- *)

(* The first run of a set (same workload, seed, length, trace flag and
   program sources) records its exact counts; every later run of the
   set must reproduce them. A difference means timing-dependent control
   flow leaked into the workload. *)
let guard ~state_dir ~key counts =
  Common.mkdir_p state_dir;
  let file = Filename.concat state_dir ("guard-" ^ key ^ ".json") in
  let now = Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) counts) in
  if not (Sys.file_exists file) then begin
    Psdp_store.Atomic_io.write_atomic file (Json.to_string now);
    []
  end
  else
    match Json.parse (Common.read_file file) with
    | Error _ -> [ "guard file unreadable: " ^ file ]
    | Ok first ->
        List.filter_map
          (fun (k, v) ->
            match Option.bind (Json.mem k first) Json.int with
            | Some v0 when v0 = v -> None
            | Some v0 -> Some (Printf.sprintf "%s: first run %d, this run %d" k v0 v)
            | None -> Some (k ^ ": missing from the first run"))
          counts

let run_one ~cli ~workload ~seed ~seconds ~traced ~run_dir ~state_dir ~source =
  let dir = Filename.concat run_dir workload in
  Common.rm_rf dir;
  Common.mkdir_p dir;
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  let r =
    Fun.protect
      ~finally:(fun () -> Sys.chdir cwd)
      (fun () -> Run.run ~cli ~workload ~seed ~seconds ~traced)
  in
  let key =
    Printf.sprintf "%s-s%d-t%d-trace%d-%s" workload seed seconds
      (if traced then 1 else 0) source
  in
  let drift = guard ~state_dir ~key r.pass.counts in
  (r, drift @ r.mismatches, Common.on_tmpfs dir)

let report ~workload ~traced ~fingerprint (r : Run.result) ~guard_msgs =
  let p = r.pass in
  let n = Array.length p.answers in
  let setup_s = Common.median r.setups in
  let e2e = Outcome.end_to_end ~setup_s p in
  let blocks = Common.tail_blocks n in
  Printf.printf "== %s: %d requests, tail = p%d%s\n" workload n
    (Common.tail_percentile (n / blocks))
    (if blocks = 1 then ""
     else Printf.sprintf " of each %d-request block, median of %d blocks" (n / blocks) blocks);
  Printf.printf "fingerprint: %s\n" (Json.to_string (Json.Obj fingerprint));
  Printf.printf "setups_s: %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") r.setups)));
  List.iter
    (fun (x : Outcome.metric) -> Printf.printf "  %-34s %14.6g %s\n" x.name x.value x.unit_)
    e2e;
  Printf.printf "counts: %s\n"
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) p.counts));
  (match Outcome.misses p with
  | [] -> Printf.printf "every answer passed its checks\n"
  | ms ->
      Printf.printf "%d request(s) failed a check:\n" (List.length ms);
      List.iter (fun (id, note) -> Printf.printf "  %s: %s\n" id note) ms);
  let per_layer = if traced then Run.complete_per_layer r.per_layer else [] in
  if traced then begin
    Printf.printf "per-layer (traced run):\n";
    List.iter
      (fun (x : Outcome.metric) ->
        Printf.printf "  %-34s %14.6g %s\n" x.name x.value x.unit_)
      per_layer
  end;
  (match guard_msgs with
  | [] -> Printf.printf "determinism guard: ok\n"
  | ms ->
      Printf.printf "determinism guard: FLAGGED\n";
      List.iter (Printf.printf "  %s\n") ms);
  (e2e, per_layer)

let () =
  let workload = arg "workload" in
  let seed = int_arg "seed" and seconds = int_arg "seconds" in
  let traced = int_arg "trace" = 1 in
  let cli = absolute (arg "cli") in
  let run_dir = absolute (arg "run-dir") and state_dir = absolute (arg "state-dir") in
  let source = arg ~default:"unknown" "source" in
  if seconds < 1 || not (List.mem workload Run.workloads) then usage ();
  let r, guard_msgs, tmpfs =
    run_one ~cli ~workload ~seed ~seconds ~traced ~run_dir ~state_dir ~source
  in
  let fingerprint =
    [
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("pool_size", Json.Num (float_of_int r.pool_size));
      ("rev", Json.Str (arg ~default:"unknown" "rev"));
      ("dirty", Json.Str (arg ~default:"unknown" "dirty"));
      ("source", Json.Str source);
      ("store_on_tmpfs", Json.Bool tmpfs);
      ("seed", Json.Num (float_of_int seed));
      ("seconds", Json.Num (float_of_int seconds));
    ]
  in
  let e2e, per_layer = report ~workload ~traced ~fingerprint r ~guard_msgs in
  let failed = Outcome.unsound r.pass in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0 && guard_msgs = []));
            ("attempted", Json.Num (float_of_int (Array.length r.pass.answers)));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", Json.Obj (List.map json_metric (if traced then per_layer else e2e)));
          ]))
