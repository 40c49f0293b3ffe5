(** The batch-solve engine: a persistent multi-job solve service.

    [psdp solve] pays pool spin-up, normalization and bracketing once per
    process. The engine amortizes all three across a stream of jobs:

    {v
    submit ──▶ scheduler (priority queue) ──▶ runner domains ──▶ results
                                              │        │
                                              ▼        ▼
                                        shared Pool   Cache ⇄ warm start
                                              │
                                              ▼
                                         Trace sink (JSONL)
    v}

    - {b Scheduling}: jobs queue by priority (FIFO within a class) and
      run on [max_in_flight] runner domains — the bounded in-flight
      limit. Pending or running jobs can be {!cancel}led; a job's
      [timeout] turns it into a [Timed_out] result. Cancellation and
      timeouts are checked between solver iterations, so they interrupt
      even a single long-running solve.
    - {b Pool sharing}: all runners issue their parallel loops on one
      shared {!Psdp_parallel.Pool}. At most one job's loop fans out at a
      time; contenders degrade to sequential execution with the identical
      chunk partition, so each job's numbers are independent of scheduling
      (see {!Psdp_parallel.Pool.stats}).
    - {b Caching}: solve results are stored in a {!Cache} keyed by
      instance digest; an exact repeat is answered without solver work,
      and an ε-refinement warm-starts from the certified coarse bracket.
      Decision jobs are not cached (they are single calls already).
    - {b Telemetry}: with a {!Trace} sink attached, every job is a span
      tree: [queue_wait], then one [exec] span carrying the result
      ([status], and [value]/[upper]/[calls]/[iters]/[cache]/
      [certified] for solves), with the job's profiler rows ([solve]
      down to the kernels) as its children — plus an enclosing [job]
      root when the spec carried no trace context. Point events are
      left for what has no span: [decision_call] (one per call, so the
      count matches the exec span's [calls]), checkpoints, faults and
      recovery.
    - {b Observability}: with a {!Psdp_obs.Metrics} registry attached,
      the engine feeds counters (jobs submitted / finished by status,
      solver iterations, decision calls, mirrored cache / pool stats),
      gauges (queue depth, jobs in flight) and histograms
      ([psdp_job_seconds], [psdp_decision_iterations]). Each job is
      profiled into a private per-job profiler (runner domains share no
      span state) whose root ["solve"] span covers the whole solve; with
      a {!Psdp_obs.Profiler} attached the per-job rows are merged into
      it. Pointing the profiler at the same registry puts span
      histograms in the same Prometheus snapshot.

    Runners re-verify every solve's dual certificate against the
    instance before reporting it, so a cache or warm-start bug can
    surface only as [certified = false], never as a silently wrong
    answer.

    {b Durability}: with a {!Psdp_store.Store} attached, the engine
    writes a WAL record at submission, a solver-state snapshot every
    [checkpoint_every] decision calls, and a terminal record at
    completion. After a crash, {!recover} re-enqueues every job that
    was submitted but never completed, resuming each from its latest
    snapshot once the snapshot's instance digest, ε and backend/mode
    keys are revalidated against the freshly loaded instance (a
    mismatching or corrupt snapshot is traced as [snapshot_rejected]
    and the job reruns cold). A store failure mid-checkpoint fails the
    job {e without} journaling completion, so the work stays
    recoverable. *)

type t

exception Store_crash of string
(** The checkpoint store failed while persisting a snapshot or WAL
    record. Internal: surfaced to results as
    [Failed "checkpoint store: ..."]; the job keeps its pending status
    in the journal. Classified {e transient} by the fault taxonomy, so
    a retry policy covers it. *)

val create :
  ?pool:Psdp_parallel.Pool.t ->
  ?max_in_flight:int ->
  ?cache:Cache.t ->
  ?trace:Trace.sink ->
  ?store:Psdp_store.Store.t ->
  ?checkpoint_every:int ->
  ?paused:bool ->
  ?metrics:Psdp_obs.Metrics.t ->
  ?profiler:Psdp_obs.Profiler.t ->
  ?on_complete:(Job.result -> unit) ->
  ?retry:Psdp_fault.Retry.policy ->
  ?retry_budget:int ->
  ?quarantine_after:int ->
  ?breaker_threshold:int ->
  unit ->
  t
(** [create ()] spawns [max_in_flight] (default 2) runner domains.
    [pool] defaults to a freshly created pool owned (and shut down) by
    the engine; a caller-supplied pool is shared and left alive.
    [cache] defaults to a fresh memory-only cache; [trace] to
    {!Trace.null}. With [paused = true] runners hold until {!resume} —
    tests use this to make priority ordering deterministic.
    [on_complete] fires in the runner domain after each job finishes (any terminal
    status) — [psdp serve] streams results from it.

    [store] (default none — no durability) attaches a checkpoint store;
    the engine appends to its journal and snapshots solver state every
    [checkpoint_every] (default 1) decision calls. The store is not
    owned: the caller closes it after {!shutdown}.

    [metrics] (default none — zero overhead) attaches a metrics
    registry; [profiler] (default none) a span profiler. Neither is
    owned — the caller renders/reports them after {!shutdown} (or
    concurrently: both are domain-safe).

    {b Fault tolerance}: [retry] (default {!Psdp_fault.Retry.no_retry})
    governs how {e transient} faults (store failures, injected faults,
    system errors) are retried per job — decorrelated-jitter backoff
    between attempts; [retry_budget] (default unlimited) caps total
    retries engine-wide. Permanent faults (bad input, violated
    invariants) never retry. Crash-class faults re-raise to the runner's
    supervisor: the job fails as ["runner crashed: ..."], the runner
    restarts ([psdp_runner_restarts_total]), and subsequent jobs are
    unaffected. With [quarantine_after = N], a job whose terminal
    failure consumed at least [N] attempts is poison: it is journaled
    as [Quarantined] (terminal — {!recover} never re-enqueues it, a
    fresh submission releases it), listed by {!quarantined}, and
    reported as [Failed "quarantined after ..."]. [breaker_threshold]
    (default 5) consecutive store faults open a circuit breaker:
    the engine degrades to non-durable mode (journaling and
    checkpointing stop, jobs keep solving) with a [breaker_open] trace
    event and the [psdp_store_breaker_open] gauge set. A sketched solve
    whose certificate fails verification is resampled once with a fresh
    sketch seed ([sketch_resample] trace event) before being reported
    uncertified. *)

type handle

val submit : t -> Job.spec -> handle
(** Enqueue a job. A spec with [id = ""] is assigned
    ["job-<nonce>-<seq>"], where the 8-hex-digit nonce is unique per
    engine (and per process), so auto ids from independently running
    engines — e.g. distributed workers sharing a coordinator journal —
    never collide.
    Raises [Invalid_argument] after {!shutdown}. With a store attached,
    the submission is journaled first; an [Inline] instance is saved
    under the store's [instances/] directory so the journal always
    refers to a reloadable file. *)

val recover : t -> handle list
(** Re-enqueue every pending job from the attached store's journal —
    jobs submitted (possibly by a previous, crashed process) but never
    completed. Each is resumed from its latest valid snapshot, or rerun
    from scratch when it has none (or the snapshot is corrupt or
    belongs to different work). Emits [recovery_started],
    [job_recovered], [recovery_skipped] and [snapshot_rejected] trace
    events. Returns [[]] without a store. Call once, after {!create}
    and before submitting new work, so recovered jobs keep their
    journal identities. *)

val job_id : handle -> string

val cancel : t -> handle -> bool
(** Request cancellation. Pending jobs resolve to [Cancelled] without
    running; running jobs abort at the next iteration boundary. Returns
    [false] if the job had already finished (the result stands). *)

val peek : t -> handle -> Job.result option
(** The result, if the job has finished. Non-blocking. *)

val await : t -> handle -> Job.result
(** Block until the job finishes. Every submitted job terminates (runs,
    fails, cancels or times out), so [await] always returns once the
    engine is running (not paused). *)

val resume : t -> unit
(** Release runners created with [paused = true]. Idempotent. *)

val quarantined : t -> Psdp_store.Store.quarantined list
(** Jobs this engine quarantined, oldest first. (Jobs quarantined by a
    {e previous} process are listed by
    {!Psdp_store.Store.quarantined}.) *)

val store_degraded : t -> bool
(** [true] once the store circuit breaker has opened: the engine is
    running non-durable. *)

val shutdown : t -> unit
(** Stop accepting jobs, run everything still queued, join the runner
    domains, emit [engine_stopped] (with pool contention stats), and
    shut down the pool if the engine owns it. Idempotent. *)

val with_engine :
  ?pool:Psdp_parallel.Pool.t ->
  ?max_in_flight:int ->
  ?cache:Cache.t ->
  ?trace:Trace.sink ->
  ?store:Psdp_store.Store.t ->
  ?checkpoint_every:int ->
  ?metrics:Psdp_obs.Metrics.t ->
  ?profiler:Psdp_obs.Profiler.t ->
  ?on_complete:(Job.result -> unit) ->
  ?retry:Psdp_fault.Retry.policy ->
  ?retry_budget:int ->
  ?quarantine_after:int ->
  ?breaker_threshold:int ->
  (t -> 'a) ->
  'a
(** [with_engine f] creates an engine, applies [f], and shuts it down
    even if [f] raises. *)

val pool : t -> Psdp_parallel.Pool.t
val cache : t -> Cache.t
val trace : t -> Trace.sink
