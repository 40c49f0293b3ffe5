open Psdp_prelude
open Psdp_parallel
module Loader = Psdp_instances.Loader

let log_src = Logs.Src.create "psdp.engine" ~doc:"batch solve engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Store = Psdp_store.Store
module Journal = Psdp_store.Journal
module Snapshot = Psdp_store.Snapshot
module Metrics = Psdp_obs.Metrics
module Profiler = Psdp_obs.Profiler
module Trace_context = Psdp_obs.Trace_context
module Failpoint = Psdp_fault.Failpoint
module Fault = Psdp_fault.Fault
module Retry = Psdp_fault.Retry
module Breaker = Psdp_fault.Breaker

exception Store_crash = Exec.Store_crash

(* Engine-specific fault classes layered over the generic taxonomy. *)
let classify = function
  | Exec.Store_crash _ -> Fault.Transient
  | Exec.Bad_input _ -> Fault.Permanent
  | e -> Fault.classify e

(* Series the engine feeds when a metrics registry is attached. All are
   registered once at [create]; updates are O(1) and lock-free or
   per-series, so runner domains never contend on the registry. *)
type meters = {
  reg : Metrics.t;
  m_submitted : Metrics.counter;
  m_iterations : Metrics.counter;
  m_decision_calls : Metrics.counter;
  m_queue_depth : Metrics.gauge;
  m_in_flight : Metrics.gauge;
  m_job_seconds : Metrics.histogram;
  m_decision_iterations : Metrics.histogram;
  m_cache_hits : Metrics.counter;
  m_cache_misses : Metrics.counter;
  m_cache_warm : Metrics.counter;
  m_cache_stores : Metrics.counter;
  m_pool_parallel : Metrics.counter;
  m_pool_fallbacks : Metrics.counter;
  m_retries : Metrics.counter;
  m_quarantined : Metrics.gauge;
  m_breaker_open : Metrics.gauge;
  m_runner_restarts : Metrics.counter;
  m_sketch_resamples : Metrics.counter;
}

let make_meters reg =
  {
    reg;
    m_submitted =
      Metrics.counter reg ~help:"jobs accepted by the engine"
        "psdp_jobs_submitted_total";
    m_iterations =
      Metrics.counter reg ~help:"solver iterations across all jobs"
        "psdp_solver_iterations_total";
    m_decision_calls =
      Metrics.counter reg ~help:"bisection decision calls across all jobs"
        "psdp_decision_calls_total";
    m_queue_depth =
      Metrics.gauge reg ~help:"jobs queued, not yet picked up by a runner"
        "psdp_queue_depth";
    m_in_flight =
      Metrics.gauge reg ~help:"jobs currently executing" "psdp_jobs_in_flight";
    m_job_seconds =
      Metrics.histogram reg ~help:"end-to-end job latency, seconds"
        "psdp_job_seconds";
    m_decision_iterations =
      Metrics.histogram reg ~lo:1.0 ~ratio:2.0 ~buckets:24
        ~help:"solver iterations per decision call" "psdp_decision_iterations";
    m_cache_hits =
      Metrics.counter reg ~help:"result cache exact hits"
        "psdp_cache_hits_total";
    m_cache_misses =
      Metrics.counter reg ~help:"result cache misses" "psdp_cache_misses_total";
    m_cache_warm =
      Metrics.counter reg ~help:"warm-start sources found"
        "psdp_cache_warm_hits_total";
    m_cache_stores =
      Metrics.counter reg ~help:"results stored in the cache"
        "psdp_cache_stores_total";
    m_pool_parallel =
      Metrics.counter reg ~help:"pool loops that fanned out to workers"
        "psdp_pool_parallel_loops_total";
    m_pool_fallbacks =
      Metrics.counter reg ~help:"pool loops that ran sequentially (busy pool)"
        "psdp_pool_busy_fallbacks_total";
    m_retries =
      Metrics.counter reg ~help:"job attempts retried after transient faults"
        "psdp_retries_total";
    m_quarantined =
      Metrics.gauge reg ~help:"jobs currently quarantined as poison"
        "psdp_quarantined_jobs";
    m_breaker_open =
      Metrics.gauge reg
        ~help:"1 when the store circuit breaker is open (non-durable mode)"
        "psdp_store_breaker_open";
    m_runner_restarts =
      Metrics.counter reg
        ~help:"runner domains restarted after an escaped exception"
        "psdp_runner_restarts_total";
    m_sketch_resamples =
      Metrics.counter reg
        ~help:"JL-sketch resamples after a failed certificate"
        "psdp_sketch_resamples_total";
  }

type state =
  | Pending
  | Running of float  (* Timer.now at run start; a crash settles with it *)
  | Done of Job.result

type handle = {
  spec : Job.spec;
  cancel_flag : bool Atomic.t;
  resume_from : Snapshot.t option;  (* recovery: seed the bisection *)
  submitted_at : float;  (* Timer.now at acceptance; queue-wait span base *)
  base : (Trace_context.t * bool) option;
      (* the context this job's spans parent under, and whether the
         engine minted it (and so owns the enclosing "job" span); None
         when tracing is off *)
  mutable state : state;  (* protected by the engine mutex *)
}

type t = {
  epool : Pool.t;
  owns_pool : bool;
  ecache : Cache.t;
  etrace : Trace.sink;
  store : Store.t option;
  checkpoint_every : int;
  sched : handle Scheduler.t;
  mutex : Mutex.t;
  cond : Condition.t;  (* signals job completion and resume *)
  mutable paused : bool;
  mutable seq : int;
  nonce : string;  (* per-engine submit nonce: auto ids never collide
                      across engines or processes (coordinator journals
                      mix ids from many workers) *)
  mutable runners : unit Domain.t list;
  mutable stopped : bool;
  on_complete : (Job.result -> unit) option;
  meters : meters option;
  oprofiler : Profiler.t option;  (* process-wide; per-job merged in *)
  in_flight : int Atomic.t;
  retry : Retry.policy;
  retry_budget : Retry.budget;
  quarantine_after : int option;
  breaker : Breaker.t;
  mutable quarantined : Store.quarantined list;  (* engine mutex; newest first *)
}

let pool t = t.epool
let cache t = t.ecache
let trace t = t.etrace
let job_id h = h.spec.Job.id

let quarantined t =
  Mutex.lock t.mutex;
  let q = List.rev t.quarantined in
  Mutex.unlock t.mutex;
  q

let store_degraded t = Breaker.is_open t.breaker

(* Every store call goes through the breaker: [K] consecutive faults
   latch it open and the engine degrades to non-durable mode — jobs keep
   solving, nothing more is journaled or snapshotted — instead of paying
   a fault (and a retry) per job on a dead store. *)
let breaker_guard eng ~what f =
  if Breaker.is_open eng.breaker then None
  else
    match f () with
    | v ->
        Breaker.success eng.breaker;
        Some v
    | exception e ->
        Fault.record Fault.Transient;
        let opened = Breaker.failure eng.breaker in
        Trace.emit eng.etrace ~kind:"store_fault"
          [
            ("op", Json.Str what);
            ("error", Json.Str (Printexc.to_string e));
            ( "consecutive",
              Json.Num (float_of_int (Breaker.failures eng.breaker)) );
          ];
        if opened then begin
          Log.warn (fun m ->
              m
                "store circuit breaker open after %d consecutive faults \
                 (last: %s during %s); degrading to non-durable mode"
                (Breaker.failures eng.breaker) (Printexc.to_string e) what);
          Trace.emit eng.etrace ~kind:"breaker_open"
            [ ("op", Json.Str what) ];
          match eng.meters with
          | Some m -> Metrics.set m.m_breaker_open 1.0
          | None -> ()
        end;
        raise e

(* Mirror the counters other subsystems keep for themselves (cache,
   pool, fault taxonomy) into the registry. [record] raises-to-at-least, so
   sampling at every job boundary and at shutdown never double-counts. *)
let sample_meters eng =
  match eng.meters with
  | None -> ()
  | Some m ->
      Metrics.set m.m_queue_depth (float_of_int (Scheduler.length eng.sched));
      let cs = Cache.stats eng.ecache in
      Metrics.record m.m_cache_hits cs.Cache.hits;
      Metrics.record m.m_cache_misses cs.Cache.misses;
      Metrics.record m.m_cache_warm cs.Cache.warm_hits;
      Metrics.record m.m_cache_stores cs.Cache.stores;
      let ps = Pool.stats eng.epool in
      Metrics.record m.m_pool_parallel ps.Pool.parallel_loops;
      Metrics.record m.m_pool_fallbacks ps.Pool.busy_fallbacks;
      List.iter
        (fun k ->
          Metrics.record
            (Metrics.counter m.reg ~help:"faults absorbed, by class"
               ~labels:[ ("class", Fault.klass_label k) ] "psdp_faults_total")
            (Fault.count k))
        [ Fault.Transient; Fault.Permanent; Fault.Crash ];
      Metrics.set m.m_breaker_open (if Breaker.is_open eng.breaker then 1.0 else 0.0);
      let quarantine_depth =
        Mutex.lock eng.mutex;
        let n = List.length eng.quarantined in
        Mutex.unlock eng.mutex;
        n
      in
      Metrics.set m.m_quarantined (float_of_int quarantine_depth)

(* ------------------------------------------------------------------ *)
(* Job execution (in a runner domain) — the solve path itself lives in
   {!Exec}; the engine contributes the policy-bearing pieces of the
   execution context: metric taps and the durable checkpoint sink. *)

let exec_hooks eng =
  match eng.meters with
  | None -> Exec.no_hooks
  | Some m ->
      {
        Exec.on_iteration = (fun () -> Metrics.inc m.m_iterations);
        on_decision_call = (fun () -> Metrics.inc m.m_decision_calls);
        observe_call_iterations =
          (fun n -> Metrics.observe m.m_decision_iterations (float_of_int n));
        on_sketch_resample = (fun () -> Metrics.inc m.m_sketch_resamples);
      }

(* The checkpoint sink: every [checkpoint_every]-th decision call's
   snapshot is persisted through the breaker. A broken store must not
   masquerade as a solver verdict — and must leave no completion record,
   so the job stays recoverable — hence [Store_crash]. When the breaker
   is open the engine runs non-durable; solving continues without
   snapshots. *)
let exec_persist eng =
  match eng.store with
  | None -> None
  | Some store ->
      Some
        (fun ~job (snap : Snapshot.t) ->
          if snap.Snapshot.calls mod eng.checkpoint_every = 0 then
            match
              breaker_guard eng ~what:"checkpoint" (fun () ->
                  let rel = Store.save_snapshot store ~job snap in
                  Store.append store
                    (Journal.Checkpoint
                       { job; call = snap.Snapshot.calls; snapshot = rel }))
            with
            | Some () ->
                Trace.emit eng.etrace ~job ~kind:"checkpoint"
                  [
                    ("call", Json.Num (float_of_int snap.Snapshot.calls));
                    ("lo", Json.Num snap.Snapshot.lo);
                    ("hi", Json.Num snap.Snapshot.hi);
                  ]
            | None -> ()
            | exception e -> raise (Exec.Store_crash (Printexc.to_string e)))

let exec_ctx eng =
  {
    Exec.pool = eng.epool;
    cache = eng.ecache;
    trace = eng.etrace;
    persist = exec_persist eng;
    hooks = exec_hooks eng;
  }

(* Journal the terminal record. Solver verdicts (including failures) are
   [Completed] — the job is settled and recovery must not rerun it.
   Cancellations and timeouts are deliberate interruptions: a [Cancelled]
   record keeps the job's snapshots and leaves it resumable. A failing
   append is swallowed — rerunning a job on recovery is safe, crashing
   the runner is not. *)
let journal_finish eng (result : Job.result) =
  match eng.store with
  | None -> ()
  | Some store -> (
      let record =
        match result.Job.outcome with
        | Job.Solved _ ->
            Journal.Completed
              { job = result.Job.id; status = "ok"; result = None }
        | Job.Decided _ ->
            Journal.Completed
              { job = result.Job.id; status = "decided"; result = None }
        | Job.Failed msg ->
            Journal.Completed
              { job = result.Job.id; status = "failed: " ^ msg; result = None }
        | Job.Cancelled ->
            Journal.Cancelled { job = result.Job.id; reason = "cancel" }
        | Job.Timed_out ->
            Journal.Cancelled { job = result.Job.id; reason = "timeout" }
      in
      try
        ignore
          (breaker_guard eng ~what:"journal_finish" (fun () ->
               Store.append store record))
      with _ -> ())

let journal_quarantine eng ~job ~reason ~attempts =
  match eng.store with
  | None -> ()
  | Some store -> (
      try
        ignore
          (breaker_guard eng ~what:"journal_quarantine" (fun () ->
               Store.append store
                 (Journal.Quarantined { job; reason; attempts })))
      with _ -> ())

(* Settle a job: journal it, close its spans, publish the result. Every
   terminal path — a run, a cancellation before the run, a runner crash
   — ends here, so each settled job has exactly one "exec" span. It
   carries the result's fields (status, value, upper, calls, iters,
   cache, certified; or error) and lasts [elapsed]. [exec_ctx] is the
   context the run already parented its phase spans under. *)
let finish ?(record = true) ?exec_ctx eng h (result : Job.result) =
  if record then journal_finish eng result;
  (match h.base with
  | None -> ()
  | Some (b, minted) ->
      let id = result.Job.id in
      let attrs =
        match Job.result_to_json result with
        | Json.Obj fields ->
            List.filter (fun (k, _) -> k <> "id" && k <> "elapsed") fields
        | _ -> []
      in
      Trace.span eng.etrace ~job:id
        ~ctx:(match exec_ctx with Some c -> c | None -> Trace_context.child b)
        ~name:"exec" ~dur:result.Job.elapsed attrs;
      if minted then
        Trace.span eng.etrace ~job:id ~ctx:b ~name:"job"
          ~dur:(Timer.now () -. h.submitted_at)
          [ ("status", Json.Str (Job.status_string result.Job.outcome)) ]);
  Mutex.lock eng.mutex;
  h.state <- Done result;
  Condition.broadcast eng.cond;
  Mutex.unlock eng.mutex;
  match eng.on_complete with Some f -> f result | None -> ()

let run_one eng h =
  let id = h.spec.Job.id in
  let t0 = Timer.now () in
  (* Distributed tracing: [h.base] is the span the submitter owns (a
     client's request, a coordinator's assignment), or a root the engine
     minted for a plain [psdp batch] job; everything this engine emits
     parents under it. *)
  (match h.base with
  | Some (b, _) ->
      Trace.span eng.etrace ~job:id ~ctx:(Trace_context.child b)
        ~name:"queue_wait" ~dur:(t0 -. h.submitted_at) []
  | None -> ());
  if Atomic.get h.cancel_flag then
    finish eng h { Job.id; outcome = Job.Cancelled; elapsed = 0.0 }
  else begin
    Mutex.lock eng.mutex;
    h.state <- Running t0;
    Mutex.unlock eng.mutex;
    (match eng.meters with
    | Some m ->
        Metrics.set m.m_in_flight
          (float_of_int (1 + Atomic.fetch_and_add eng.in_flight 1));
        Metrics.set m.m_queue_depth
          (float_of_int (Scheduler.length eng.sched))
    | None -> ());
    (* The in-flight gauge must come back down even when a crash-class
       fault escapes to the supervisor. *)
    let decr_in_flight () =
      match eng.meters with
      | Some m ->
          Metrics.set m.m_in_flight
            (float_of_int (Atomic.fetch_and_add eng.in_flight (-1) - 1))
      | None -> ()
    in
    Fun.protect ~finally:decr_in_flight @@ fun () ->
    (* Each job profiles into a private registry — runner domains never
       share span state — and the result is merged into the process-wide
       profiler after the fact. Tracing forces a profiler even without
       one attached: phase spans (load, solve, certify) are derived from
       the profiler rows. *)
    let job_prof =
      if Option.is_some eng.oprofiler || Option.is_some h.base then
        Some (Profiler.create ())
      else None
    in
    let prof =
      match job_prof with
      | None -> Profiler.disabled
      | Some p -> Profiler.root p "solve"
    in
    let deadline = Option.map (fun s -> t0 +. s) h.spec.Job.timeout in
    let fail_message = function
      | Exec.Store_crash msg -> "checkpoint store: " ^ msg
      | Exec.Bad_input msg | Failure msg | Invalid_argument msg -> msg
      | e -> Printexc.to_string e
    in
    let ctx = exec_ctx eng in
    let check () =
      if Atomic.get h.cancel_flag then raise Exec.Cancelled_exn;
      match deadline with
      | Some d when Timer.now () > d -> raise Exec.Timed_out_exn
      | _ -> ()
    in
    (* Per-job deterministic jitter stream: retries of different jobs
       decorrelate without sharing RNG state across domains. *)
    let retry_rng = Rng.create (Hashtbl.hash id) in
    let prev_backoff = ref 0.0 in
    let may_retry n =
      n < eng.retry.Retry.max_attempts
      && (not (Atomic.get h.cancel_flag))
      && (match deadline with Some d -> Timer.now () < d | None -> true)
      && Retry.try_consume eng.retry_budget
    in
    (* The attempt loop: transient faults are retried with decorrelated
       jitter (within the per-job policy and the engine-wide budget),
       permanent faults fail immediately, and crash-class faults
       re-raise to the runner's supervisor. A job whose terminal failure
       burned [quarantine_after] or more attempts is poison: it is
       journaled as quarantined and never re-run automatically. *)
    let rec attempt n =
      match
        Failpoint.hit ~arg:id "engine.job_attempt";
        Exec.run ctx ?resume:h.resume_from ~check ~prof h.spec
      with
      | outcome -> (outcome, true)
      | exception Exec.Cancelled_exn -> (Job.Cancelled, true)
      | exception Exec.Timed_out_exn -> (Job.Timed_out, true)
      | exception e -> (
          let klass = classify e in
          (* Crash-class faults are tallied by the supervisor. *)
          (match klass with
          | Fault.Crash -> ()
          | k -> Fault.record k);
          Trace.emit eng.etrace ~job:id ~kind:"job_fault"
            [
              ("attempt", Json.Num (float_of_int n));
              ("class", Json.Str (Fault.klass_label klass));
              ("error", Json.Str (fail_message e));
            ];
          match klass with
          | Fault.Crash -> raise e
          | Fault.Transient when may_retry n ->
              let d =
                Retry.backoff eng.retry ~rng:retry_rng ~prev:!prev_backoff
              in
              prev_backoff := d;
              (match eng.meters with
              | Some m -> Metrics.inc m.m_retries
              | None -> ());
              Trace.emit eng.etrace ~job:id ~kind:"job_retry"
                [
                  ("attempt", Json.Num (float_of_int n));
                  ("backoff", Json.Num d);
                ];
              if d > 0.0 then Unix.sleepf d;
              attempt (n + 1)
          | _ -> (
              let msg = fail_message e in
              match eng.quarantine_after with
              | Some q when n >= q ->
                  journal_quarantine eng ~job:id ~reason:msg ~attempts:n;
                  Mutex.lock eng.mutex;
                  eng.quarantined <-
                    { Store.job = id; reason = msg; attempts = n }
                    :: eng.quarantined;
                  Mutex.unlock eng.mutex;
                  Trace.emit eng.etrace ~job:id ~kind:"job_quarantined"
                    [
                      ("attempts", Json.Num (float_of_int n));
                      ("error", Json.Str msg);
                    ];
                  Log.warn (fun m ->
                      m "job %s quarantined after %d attempts: %s" id n msg);
                  (* The Quarantined record above is the terminal journal
                     entry; no Completed record must follow it. *)
                  ( Job.Failed
                      (Printf.sprintf "quarantined after %d attempts: %s" n
                         msg),
                    false )
              | _ ->
                  (* A store fault leaves no completion record, so the
                     job stays pending for recovery. *)
                  let record =
                    match e with Store_crash _ -> false | _ -> true
                  in
                  (Job.Failed msg, record)))
    in
    let outcome, record = attempt 1 in
    let elapsed = Timer.now () -. t0 in
    Profiler.exit prof;
    (* Phase spans mirror the profiler tree under the exec span: paths
       sort so a parent ("solve") precedes its children
       ("solve/certify"), letting each row's context link under its
       parent's. Rows whose parent path never profiled fall back to the
       exec span. *)
    let exec_ctx = Option.map (fun (b, _) -> Trace_context.child b) h.base in
    (match (exec_ctx, job_prof) with
    | Some exec_span, Some p ->
        let rows =
          List.sort
            (fun (a : Profiler.row) (b : Profiler.row) ->
              compare a.Profiler.path b.Profiler.path)
            (Profiler.report p)
        in
        let ctxs = Hashtbl.create 8 in
        List.iter
          (fun (r : Profiler.row) ->
            let path = r.Profiler.path in
            let parent_ctx, name =
              match String.rindex_opt path '/' with
              | None -> (exec_span, path)
              | Some i ->
                  ( (match Hashtbl.find_opt ctxs (String.sub path 0 i) with
                    | Some c -> c
                    | None -> exec_span),
                    String.sub path (i + 1) (String.length path - i - 1) )
            in
            let c = Trace_context.child parent_ctx in
            Hashtbl.replace ctxs path c;
            Trace.span eng.etrace ~job:id ~ctx:c ~name ~dur:r.Profiler.total
              [ ("count", Json.Num (float_of_int r.Profiler.count)) ])
          rows
    | _ -> ());
    (match (job_prof, eng.oprofiler) with
    | Some p, Some shared -> Profiler.merge ~into:shared p
    | _ -> ());
    (match eng.meters with
    | Some m ->
        Metrics.observe m.m_job_seconds elapsed;
        Metrics.inc
          (Metrics.counter m.reg ~help:"jobs finished, by terminal status"
             ~labels:[ ("status", Job.status_string outcome) ]
             "psdp_jobs_finished_total");
        sample_meters eng
    | None -> ());
    finish ~record ?exec_ctx eng h { Job.id; outcome; elapsed }
  end

(* Supervision: an exception escaping [run_one] must not kill the
   runner domain — with it would go one unit of the engine's capacity,
   silently. The crash is tallied and traced, the job is settled as
   failed (when the crash left it unsettled) with the time it ran until
   the crash, and the loop restarts with the next job. *)
let supervise eng h e =
  let id = h.spec.Job.id in
  Fault.record Fault.Crash;
  (match eng.meters with
  | Some m -> Metrics.inc m.m_runner_restarts
  | None -> ());
  (try
     Trace.emit eng.etrace ~job:id ~kind:"runner_restarted"
       [ ("error", Json.Str (Printexc.to_string e)) ];
     Log.warn (fun m ->
         m "runner crashed on job %s (%s); restarting" id
           (Printexc.to_string e))
   with _ -> ());
  Mutex.lock eng.mutex;
  let state = h.state in
  Mutex.unlock eng.mutex;
  let settle elapsed =
    try
      finish eng h
        {
          Job.id;
          outcome = Job.Failed ("runner crashed: " ^ Printexc.to_string e);
          elapsed;
        }
    with _ -> ()
  in
  match state with
  | Done _ -> ()
  | Pending -> settle 0.0
  | Running t0 -> settle (Timer.now () -. t0)

let rec runner_loop eng =
  Mutex.lock eng.mutex;
  while eng.paused do
    Condition.wait eng.cond eng.mutex
  done;
  Mutex.unlock eng.mutex;
  match Scheduler.pop eng.sched with
  | None -> ()
  | Some h ->
      (try run_one eng h with e -> supervise eng h e);
      runner_loop eng

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

(* Submit nonce: 8 hex chars mixing pid, wall clock and a process-wide
   counter, so auto-assigned job ids are unique across engines in one
   process {e and} across processes. Distributed reroutes re-journal a
   job under its original id; two workers inventing "job-3" would
   corrupt the coordinator's assignment bookkeeping. *)
let nonce_counter = Atomic.make 0

let fresh_nonce () =
  String.sub
    (Psdp_store.Checksum.fnv1a64_hex
       (Printf.sprintf "%d.%.9f.%d" (Unix.getpid ()) (Unix.gettimeofday ())
          (Atomic.fetch_and_add nonce_counter 1)))
    0 8

let create ?pool ?(max_in_flight = 2) ?cache ?trace ?store
    ?(checkpoint_every = 1) ?(paused = false) ?metrics ?profiler ?on_complete
    ?(retry = Retry.no_retry) ?retry_budget ?quarantine_after
    ?(breaker_threshold = 5) () =
  if max_in_flight < 1 then
    invalid_arg "Engine.create: max_in_flight must be >= 1";
  if checkpoint_every < 1 then
    invalid_arg "Engine.create: checkpoint_every must be >= 1";
  (match quarantine_after with
  | Some q when q < 1 ->
      invalid_arg "Engine.create: quarantine_after must be >= 1"
  | _ -> ());
  let epool, owns_pool =
    match pool with Some p -> (p, false) | None -> (Pool.create (), true)
  in
  let eng =
    {
      epool;
      owns_pool;
      ecache = (match cache with Some c -> c | None -> Cache.create ());
      etrace = (match trace with Some t -> t | None -> Trace.null);
      store;
      checkpoint_every;
      sched = Scheduler.create ();
      mutex = Mutex.create ();
      cond = Condition.create ();
      paused;
      seq = 0;
      nonce = fresh_nonce ();
      runners = [];
      stopped = false;
      on_complete;
      meters = Option.map make_meters metrics;
      oprofiler = profiler;
      in_flight = Atomic.make 0;
      retry;
      retry_budget = Retry.budget retry_budget;
      quarantine_after;
      breaker = Breaker.create ~threshold:breaker_threshold ();
      quarantined = [];
    }
  in
  Trace.emit eng.etrace ~kind:"engine_started"
    [
      ("pool_size", Json.Num (float_of_int (Pool.size epool)));
      ("max_in_flight", Json.Num (float_of_int max_in_flight));
    ];
  eng.runners <-
    List.init max_in_flight (fun _ -> Domain.spawn (fun () -> runner_loop eng));
  eng

(* Make a spec journalable: inline instances are persisted into the
   store's [instances/] directory (idempotently, keyed by digest) so the
   WAL always refers to a file a later process can reload. *)
let journal_submit eng (spec : Job.spec) =
  match eng.store with
  | None -> spec
  | Some store -> (
      match
        breaker_guard eng ~what:"journal_submit" (fun () ->
            let spec =
              match spec.Job.source with
              | Job.File _ -> spec
              | Job.Inline inst ->
                  let digest = Loader.digest inst in
                  let path =
                    Store.save_instance store ~digest
                      ~text:(Loader.to_string inst)
                  in
                  { spec with Job.source = Job.File path }
            in
            (match Job.spec_to_json spec with
            | Ok json ->
                Store.append store
                  (Journal.Submitted { job = spec.Job.id; spec = json })
            | Error _ -> ());
            (* Lineage is pure provenance on top of the spec (which
               already carries [parent] through its JSON form): it makes
               warm-start ancestry auditable from the WAL alone. *)
            (match spec.Job.parent with
            | Some parent ->
                Store.append store
                  (Journal.Lineage { job = spec.Job.id; parent })
            | None -> ());
            spec)
      with
      | Some spec -> spec
      | None -> spec (* breaker open: accept the job non-durably *)
      | exception _ ->
          (* A store fault at submission degrades durability, never
             availability: the job is accepted unjournaled (the breaker
             counted the fault). *)
          spec)

let submit_with ?resume eng (spec : Job.spec) =
  Mutex.lock eng.mutex;
  if eng.stopped then begin
    Mutex.unlock eng.mutex;
    invalid_arg "Engine.submit: engine is shut down"
  end;
  eng.seq <- eng.seq + 1;
  let spec : Job.spec =
    if spec.Job.id = "" then
      { spec with Job.id = Printf.sprintf "job-%s-%d" eng.nonce eng.seq }
    else spec
  in
  Mutex.unlock eng.mutex;
  let spec = journal_submit eng spec in
  (* With no inherited context — a plain [psdp batch] job — the engine
     mints a root and emits the enclosing "job" span itself, so a
     single-process trace still assembles into one tree. *)
  let base =
    if Trace.enabled eng.etrace then
      match spec.Job.trace with
      | Some parent -> Some (parent, false)
      | None -> Some (Trace_context.mint (), true)
    else None
  in
  let h =
    { spec; cancel_flag = Atomic.make false; resume_from = resume;
      submitted_at = Timer.now (); base; state = Pending }
  in
  Scheduler.push eng.sched ~priority:spec.Job.priority h;
  (match eng.meters with
  | Some m ->
      Metrics.inc m.m_submitted;
      Metrics.set m.m_queue_depth (float_of_int (Scheduler.length eng.sched))
  | None -> ());
  h

let submit eng spec = submit_with eng spec

let recover eng =
  match eng.store with
  | None -> []
  | Some store ->
      let pend = Store.pending store in
      Trace.emit eng.etrace ~kind:"recovery_started"
        [ ("pending", Json.Num (float_of_int (List.length pend))) ];
      (match Store.torn_tail store with
      | Some msg ->
          Trace.emit eng.etrace ~kind:"journal_torn"
            [ ("error", Json.Str msg) ]
      | None -> ());
      List.filter_map
        (fun (p : Store.pending) ->
          match Job.spec_of_json p.Store.spec with
          | Error msg ->
              Trace.emit eng.etrace ~job:p.Store.job ~kind:"recovery_skipped"
                [ ("error", Json.Str msg) ];
              None
          | Ok spec ->
              let spec = { spec with Job.id = p.Store.job } in
              let resume =
                match p.Store.snapshot with
                | None -> None
                | Some rel -> (
                    match Store.load_snapshot store rel with
                    | Ok snap -> Some snap
                    | Error msg ->
                        (* Corrupt snapshot: the spec is still good, so
                           the job reruns from scratch rather than being
                           dropped or trusted. *)
                        Trace.emit eng.etrace ~job:p.Store.job
                          ~kind:"snapshot_rejected"
                          [ ("reason", Json.Str msg) ];
                        None)
              in
              let h = submit_with ?resume eng spec in
              Trace.emit eng.etrace ~job:p.Store.job ~kind:"job_recovered"
                [
                  ( "from_call",
                    Json.Num
                      (float_of_int
                         (match resume with
                         | Some s -> s.Snapshot.calls
                         | None -> 0)) );
                  ( "interrupted",
                    Json.Str
                      (match p.Store.interrupted with
                      | Some reason -> reason
                      | None -> "crash") );
                ];
              Some h)
        pend

let cancel eng h =
  Atomic.set h.cancel_flag true;
  Mutex.lock eng.mutex;
  let took = match h.state with Done _ -> false | Pending | Running _ -> true in
  Mutex.unlock eng.mutex;
  took

let peek eng h =
  Mutex.lock eng.mutex;
  let r = match h.state with Done r -> Some r | Pending | Running _ -> None in
  Mutex.unlock eng.mutex;
  r

let await eng h =
  Mutex.lock eng.mutex;
  let rec wait () =
    match h.state with
    | Done r ->
        Mutex.unlock eng.mutex;
        r
    | Pending | Running _ ->
        Condition.wait eng.cond eng.mutex;
        wait ()
  in
  wait ()

let resume eng =
  Mutex.lock eng.mutex;
  eng.paused <- false;
  Condition.broadcast eng.cond;
  Mutex.unlock eng.mutex

let shutdown eng =
  Mutex.lock eng.mutex;
  if eng.stopped then Mutex.unlock eng.mutex
  else begin
    eng.stopped <- true;
    eng.paused <- false;
    Condition.broadcast eng.cond;
    Mutex.unlock eng.mutex;
    Scheduler.close eng.sched;
    List.iter Domain.join eng.runners;
    eng.runners <- [];
    let stats = Pool.stats eng.epool in
    sample_meters eng;
    Trace.emit eng.etrace ~kind:"engine_stopped"
      [
        ("jobs", Json.Num (float_of_int eng.seq));
        ( "pool_parallel_loops",
          Json.Num (float_of_int stats.Pool.parallel_loops) );
        ( "pool_busy_fallbacks",
          Json.Num (float_of_int stats.Pool.busy_fallbacks) );
      ];
    Trace.flush_sink eng.etrace;
    Log.info (fun m ->
        m "engine stopped: %d jobs, %d parallel loops, %d busy fallbacks"
          eng.seq stats.Pool.parallel_loops stats.Pool.busy_fallbacks);
    if eng.owns_pool then Pool.shutdown eng.epool
  end

let with_engine ?pool ?max_in_flight ?cache ?trace ?store ?checkpoint_every
    ?metrics ?profiler ?on_complete ?retry ?retry_budget ?quarantine_after
    ?breaker_threshold f =
  let eng =
    create ?pool ?max_in_flight ?cache ?trace ?store ?checkpoint_every
      ?metrics ?profiler ?on_complete ?retry ?retry_budget ?quarantine_after
      ?breaker_threshold ()
  in
  match f eng with
  | result ->
      shutdown eng;
      result
  | exception e ->
      shutdown eng;
      raise e
