open Psdp_prelude
open Psdp_core
open Psdp_instances
module Snapshot = Psdp_store.Snapshot
module Profiler = Psdp_obs.Profiler

exception Cancelled_exn
exception Timed_out_exn
exception Bad_input of string
exception Store_crash of string

type hooks = {
  on_iteration : unit -> unit;
  on_decision_call : unit -> unit;
  observe_call_iterations : int -> unit;
  on_sketch_resample : unit -> unit;
}

let no_hooks =
  {
    on_iteration = ignore;
    on_decision_call = ignore;
    observe_call_iterations = ignore;
    on_sketch_resample = ignore;
  }

type ctx = {
  pool : Psdp_parallel.Pool.t;
  cache : Cache.t;
  trace : Trace.sink;
  persist : (job:string -> Psdp_store.Snapshot.t -> unit) option;
  hooks : hooks;
}

let load_instance = function
  | Job.Inline inst -> inst
  | Job.File path -> (
      match Loader.load_result path with
      | Ok inst -> inst
      | Error msg -> raise (Bad_input msg))

let run ctx ?resume:resume_from ~check ~prof (spec : Job.spec) =
  let id = spec.Job.id in
  let iters = ref 0 in
  let on_iter (_ : Decision.iter_stats) =
    incr iters;
    ctx.hooks.on_iteration ();
    check ()
  in
  (* Load and certification get their own profiler phases: they are the
     two non-solver segments of a job's wall clock, and the trace
     critical path should name them rather than lump them into the
     parent's self time. *)
  let inst =
    Profiler.with_span prof "load" (fun () -> load_instance spec.Job.source)
  in
  check ();
  match spec.Job.op with
  | Job.Decide { threshold } ->
      let scaled = Instance.scale threshold inst in
      let r =
        Decision.solve ~pool:ctx.pool ~backend:spec.Job.backend
          ~mode:spec.Job.mode ~prof ~on_iter ~eps:spec.Job.eps scaled
      in
      ctx.hooks.observe_call_iterations r.Decision.iterations;
      (match r.Decision.outcome with
      | Decision.Dual { x; _ } ->
          let value = Util.sum_array x in
          Job.Decided
            {
              accepted = true;
              bound = threshold *. value;
              iterations = r.Decision.iterations;
            }
      | Decision.Primal { dots; _ } ->
          let min_dot = Util.min_array dots in
          Job.Decided
            {
              accepted = false;
              bound =
                (if min_dot > 0.0 then threshold /. min_dot else Float.infinity);
              iterations = r.Decision.iterations;
            })
  | Job.Solve -> (
      let digest = Loader.digest inst in
      let backend = Job.backend_key spec.Job.backend in
      let mode = Job.mode_key spec.Job.mode in
      match
        Cache.find ctx.cache ~digest ~eps:spec.Job.eps ~backend ~mode
      with
      | Some e ->
          Job.Solved
            {
              value = e.Cache.value;
              upper_bound = e.Cache.upper_bound;
              decision_calls = 0;
              iterations = 0;
              cache = Job.Hit;
              certified = true;
            }
      | None ->
          let warm_entry = Cache.find_warm ctx.cache ~digest ~backend ~mode in
          (* Lineage fallback: no incumbent for this exact instance, but
             the spec names a parent digest — adopt the parent's closest-ε
             solution vector as a seed. Only [x0] crosses instances: the
             solver re-verifies it against {e this} instance, so a stale
             or drifted-away parent costs nothing. The parent's
             [upper_bound] is never reused — it certifies a different
             instance and would be trusted unverified. *)
          let parent_entry =
            match (warm_entry, spec.Job.parent) with
            | Some _, _ | _, None -> None
            | None, Some p -> (
                match
                  Cache.find_warm ~eps:spec.Job.eps ctx.cache ~digest:p
                    ~backend ~mode
                with
                | Some e
                  when Array.length e.Cache.x = Instance.num_constraints inst
                  ->
                    Some e
                | Some _ | None -> None)
          in
          let warm =
            match (warm_entry, parent_entry) with
            | Some e, _ ->
                { Solver.upper = Some e.Cache.upper_bound;
                  x0 = Some e.Cache.x }
            | None, Some e -> { Solver.upper = None; x0 = Some e.Cache.x }
            | None, None -> Solver.cold
          in
          (* A recovery snapshot is adopted only if it provably belongs
             to this exact work item: same instance content (digest),
             same accuracy, same backend/mode. Anything else is traced
             and discarded — the job simply solves cold. *)
          let resume =
            match resume_from with
            | None -> None
            | Some snap
              when snap.Snapshot.digest = digest
                   && snap.Snapshot.eps = spec.Job.eps
                   && snap.Snapshot.backend = backend
                   && snap.Snapshot.mode = mode ->
                Trace.emit ctx.trace ~job:id ~kind:"resume"
                  [
                    ("from_call", Json.Num (float_of_int snap.Snapshot.calls));
                    ("lo", Json.Num snap.Snapshot.lo);
                    ("hi", Json.Num snap.Snapshot.hi);
                  ];
                Some
                  {
                    Solver.lo = snap.Snapshot.lo;
                    hi = snap.Snapshot.hi;
                    incumbent = snap.Snapshot.x;
                    incumbent_value = snap.Snapshot.value;
                    calls_done = snap.Snapshot.calls;
                    iterations_done = snap.Snapshot.iterations;
                    dropped = snap.Snapshot.dropped;
                  }
            | Some snap ->
                Trace.emit ctx.trace ~job:id ~kind:"snapshot_rejected"
                  [
                    ("reason", Json.Str "identity mismatch");
                    ("snapshot_digest", Json.Str snap.Snapshot.digest);
                    ("instance_digest", Json.Str digest);
                  ];
                None
          in
          let checkpoint =
            match ctx.persist with
            | None -> None
            | Some persist ->
                Some
                  (fun (s : Solver.bisection_state) ->
                    persist ~job:id
                      {
                        Snapshot.digest;
                        eps = spec.Job.eps;
                        backend;
                        mode;
                        threshold = sqrt (s.Solver.lo *. s.Solver.hi);
                        lo = s.Solver.lo;
                        hi = s.Solver.hi;
                        value = s.Solver.incumbent_value;
                        calls = s.Solver.calls_done;
                        iterations = s.Solver.iterations_done;
                        dropped = s.Solver.dropped;
                        x = s.Solver.incumbent;
                        rng = [||];
                      })
          in
          (* Iterations-per-call accounting: [on_call] fires before each
             decision call, so the delta since the previous firing is the
             previous call's iteration count; the last call is flushed
             after the solver returns. *)
          let seen_call = ref false and iters_at_call = ref 0 in
          let bump_call_histogram () =
            if !seen_call then begin
              ctx.hooks.observe_call_iterations (!iters - !iters_at_call);
              iters_at_call := !iters
            end
          in
          let on_call ~call ~threshold =
            bump_call_histogram ();
            seen_call := true;
            ctx.hooks.on_decision_call ();
            Trace.emit ctx.trace ~job:id ~kind:"decision_call"
              [
                ("call", Json.Num (float_of_int call));
                ("threshold", Json.Num threshold);
              ];
            check ()
          in
          let run_solver ?checkpoint backend_v =
            let r =
              Solver.solve_packing ~pool:ctx.pool ~backend:backend_v
                ~mode:spec.Job.mode ~warm ?resume ?checkpoint ~prof ~on_iter
                ~on_call ~eps:spec.Job.eps inst
            in
            bump_call_histogram ();
            let cert =
              Profiler.with_span prof "certify" (fun () ->
                  Certificate.check_dual inst r.Solver.x)
            in
            (r, cert)
          in
          let r, cert = run_solver ?checkpoint spec.Job.backend in
          (* Numerical graceful degradation: an uncertified sketched
             solve gets exactly one resample with a fresh sketch seed —
             an unlucky JL projection should not fail the job — before
             the result is reported uncertified. The resample runs
             without checkpointing (its snapshots would carry the wrong
             backend identity) and caches under its own backend key. *)
          let backend_used, r, cert =
            match spec.Job.backend with
            | Decision.Sketched { seed; sketch_dim }
              when not cert.Certificate.feasible ->
                let fresh = Decision.Sketched { seed = seed + 1; sketch_dim } in
                Psdp_fault.Fault.record Psdp_fault.Fault.Transient;
                ctx.hooks.on_sketch_resample ();
                Trace.emit ctx.trace ~job:id ~kind:"sketch_resample"
                  [
                    ("seed", Json.Num (float_of_int seed));
                    ("fresh_seed", Json.Num (float_of_int (seed + 1)));
                  ];
                let r2, cert2 = run_solver fresh in
                (fresh, r2, cert2)
            | _ -> (spec.Job.backend, r, cert)
          in
          if cert.Certificate.feasible then
            Cache.store ctx.cache
              {
                Cache.digest;
                eps = spec.Job.eps;
                backend = Job.backend_key backend_used;
                mode;
                value = r.Solver.value;
                upper_bound = r.Solver.upper_bound;
                x = r.Solver.x;
                decision_calls = r.Solver.decision_calls;
                iterations = r.Solver.total_iterations;
              };
          Job.Solved
            {
              value = r.Solver.value;
              upper_bound = r.Solver.upper_bound;
              decision_calls = r.Solver.decision_calls;
              iterations = r.Solver.total_iterations;
              cache =
                (if warm_entry <> None then Job.Warm
                 else if parent_entry <> None then Job.Parent
                 else Job.Miss);
              certified = cert.Certificate.feasible;
            })
