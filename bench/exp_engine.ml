(* EXP10: the batch engine's amortization claims, measured end to end.

   The same 12-job stream (4 instances × 3 accuracy targets, coarse to
   fine) is run three ways:

   - cold loop: independent [Solver.solve_packing] calls, the cost of a
     shell loop around [psdp solve];
   - engine, empty cache: one shared pool, ε-refinements warm-started
     from the coarse entries that precede them in the stream;
   - engine, primed cache: the same batch again — every job is an exact
     repeat and must be answered from the cache without solver work.

   Decision calls are the honest unit here (a 1-core container makes
   wall-clock flattering to nobody), but both are reported, along with
   the shared pool's contention counters. *)

open Psdp_prelude
open Psdp_core
open Psdp_instances
open Psdp_engine

let instances () =
  let rng = Rng.create 97 in
  [
    ("proj", fst (Known_opt.orthogonal_projectors ~rng ~dim:12 ~n:4));
    ("rank1", fst (Known_opt.rank_one_orthonormal ~rng ~dim:10 ~n:6));
    ("rand", Random_psd.factored ~rng ~dim:8 ~n:5 ());
    ("cyc", Graph_packing.edge_packing (Graph.cycle 6));
  ]

let workload ~quick =
  let epses = if quick then [ 0.5; 0.3 ] else [ 0.5; 0.35; 0.25 ] in
  List.concat_map
    (fun (name, inst) ->
      List.map
        (fun eps -> (Printf.sprintf "%s@%.2f" name eps, inst, eps))
        epses)
    (instances ())

let solved_stats results =
  List.fold_left
    (fun (calls, hits, warms) (r : Job.result) ->
      match r.Job.outcome with
      | Job.Solved { decision_calls; cache; _ } ->
          ( calls + decision_calls,
            (hits + if cache = Job.Hit then 1 else 0),
            (warms + if cache = Job.Warm then 1 else 0) )
      | _ -> (calls, hits, warms))
    (0, 0, 0) results

let run ~quick () =
  Bench_util.section
    "EXP10: batch engine — caching and warm-start amortization";
  let jobs = workload ~quick in
  Printf.printf "workload: %d solve jobs (coarse→fine) over %d instances\n"
    (List.length jobs)
    (List.length (instances ()));
  (* Baseline: every job solved from scratch. *)
  let t0 = Timer.now () in
  let cold_calls =
    List.fold_left
      (fun acc (_, inst, eps) ->
        acc + (Solver.solve_packing ~eps inst).Solver.decision_calls)
      0 jobs
  in
  let t_cold = Timer.now () -. t0 in
  (* Engine runs share one pool and one cache across both batches. One
     runner keeps the coarse→fine submission order as execution order, so
     every refinement sees its coarse entry. *)
  Psdp_parallel.Pool.with_pool ~num_domains:2 (fun pool ->
      let cache = Cache.create () in
      let batch () =
        let t0 = Timer.now () in
        let results =
          Engine.with_engine ~pool ~max_in_flight:1 ~cache (fun eng ->
              List.map
                (fun (id, inst, eps) ->
                  Engine.submit eng (Job.solve_spec ~id ~eps (Job.Inline inst)))
                jobs
              |> List.map (Engine.await eng))
        in
        (Timer.now () -. t0, results)
      in
      let t_warm, warm_results = batch () in
      let warm_calls, warm_hits, warm_warms = solved_stats warm_results in
      let t_hit, hit_results = batch () in
      let hit_calls, hit_hits, _ = solved_stats hit_results in
      Printf.printf "%-24s %10s %8s %6s %6s\n" "scenario" "time(s)" "calls"
        "hits" "warm";
      Printf.printf "%-24s %10.3f %8d %6s %6s\n" "cold solve loop" t_cold
        cold_calls "-" "-";
      Printf.printf "%-24s %10.3f %8d %6d %6d\n" "engine, empty cache" t_warm
        warm_calls warm_hits warm_warms;
      Printf.printf "%-24s %10.3f %8d %6d %6s\n" "engine, primed cache" t_hit
        hit_calls hit_hits "-";
      let s = Psdp_parallel.Pool.stats pool in
      Printf.printf
        "shared pool: %d parallel loops, %d busy fallbacks\n"
        s.Psdp_parallel.Pool.parallel_loops s.Psdp_parallel.Pool.busy_fallbacks;
      Printf.printf
        "decision calls saved by warm starts: %d of %d (%.0f%%); repeat \
         batch: %d calls\n"
        (cold_calls - warm_calls) cold_calls
        (100.0
        *. float_of_int (cold_calls - warm_calls)
        /. float_of_int (max 1 cold_calls))
        hit_calls;
      (t_cold, t_warm, t_hit))
