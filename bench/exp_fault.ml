(* EXP13: fault-tolerance overhead at a 0% fault rate.

   The fault layer rides on every job attempt (a failpoint evaluation
   at the attempt boundary, at each decision call and at each journal
   append, plus the retry/quarantine bookkeeping around [run_one]), so
   its cost in the healthy path has to be measured, not assumed. The
   same batch is run two ways through the engine:

   - baseline: the default policy — [Retry.no_retry], no quarantine,
     exactly the pre-fault-layer configuration;
   - hardened: retries enabled (3 attempts, decorrelated-jitter
     backoff), a quarantine threshold and the store breaker armed —
     everything [psdp batch --retries 2 --quarantine-after 3] turns on.

   No failpoint is armed, so both runs do identical solver work; the
   difference is pure fault-layer bookkeeping. The acceptance bar is
   <= 5% median overhead, matching EXP11 (checkpointing) and EXP12
   (observability). *)

open Psdp_prelude
open Psdp_instances
open Psdp_engine
module Retry = Psdp_fault.Retry

let workload ~quick =
  let rng = Rng.create 43 in
  let insts =
    [
      ("proj", fst (Known_opt.orthogonal_projectors ~rng ~dim:12 ~n:4));
      ("rand", Random_psd.factored ~rng ~dim:10 ~n:6 ());
    ]
  in
  let insts = if quick then [ List.hd insts ] else insts in
  List.concat_map
    (fun (name, inst) ->
      List.map
        (fun i -> Job.solve_spec ~id:(Printf.sprintf "%s-%d" name i) ~eps:0.3
             (Job.Inline inst))
        [ 1; 2; 3 ])
    insts

let run_batch ?retry ?quarantine_after specs =
  Psdp_parallel.Pool.with_pool (fun pool ->
      Engine.with_engine ~pool ~max_in_flight:1 ?retry ?quarantine_after
        (fun eng ->
          let handles = List.map (Engine.submit eng) specs in
          let results = List.map (Engine.await eng) handles in
          List.iter
            (fun (r : Job.result) ->
              match r.Job.outcome with
              | Job.Solved { certified = true; _ } -> ()
              | _ -> failwith (Printf.sprintf "job %s not certified" r.Job.id))
            results))

let run ~quick () =
  Bench_util.section "EXP13: fault-tolerance overhead (0% fault rate)";
  let specs = workload ~quick in
  let repeats = if quick then 3 else 5 in
  Printf.printf "workload: %d solve jobs at eps 0.3, median of %d runs\n"
    (List.length specs) repeats;
  (* Warm-up: fault in code paths and allocator state before timing. *)
  run_batch specs;
  let (), t_base =
    Timer.time_median ~repeats (fun () -> run_batch specs)
  in
  let retry = Retry.make ~base:0.05 ~cap:2.0 ~max_attempts:3 () in
  let (), t_hard =
    Timer.time_median ~repeats (fun () ->
        run_batch ~retry ~quarantine_after:3 specs)
  in
  let overhead = 100.0 *. ((t_hard /. t_base) -. 1.0) in
  Printf.printf "\n%-26s %12s %10s\n" "configuration" "median (s)" "overhead";
  Printf.printf "%-26s %12.4f %10s\n" "baseline (no_retry)" t_base "-";
  Printf.printf "%-26s %12.4f %9.2f%%\n" "retries+quarantine" t_hard overhead;
  (* Timing noise on sub-second workloads can swamp the signal; only
     trip the bar on a clear violation. *)
  if overhead > 5.0 && t_base > 0.5 then
    Printf.printf
      "WARNING: fault-layer overhead %.2f%% exceeds the 5%% budget\n" overhead
  else Printf.printf "overhead within the 5%% budget\n";
  overhead
