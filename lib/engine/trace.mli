(** Structured telemetry: one span stream per process.

    A duration is recorded once, as a [span] event (see {!span}); the
    assembler ({!Psdp_obs.Trace_assemble}) is the one reader of spans,
    behind [psdp trace summarize], [psdp trace critical-path] and
    [psdp slo report]. Point events remain only for what has no span.
    A sink decides where events go: nowhere, an in-memory buffer (tests
    introspect it), or an output channel as JSONL (one compact object
    per line — the format every [--trace] flag writes).

    Emission is thread-safe. Events are formatted {e outside} the sink
    mutex; only the timestamp (whose clamp must match write order) and
    the channel write itself are serialized, so runner domains never
    contend on JSON rendering. Timestamps come from the monotonic
    {!Psdp_prelude.Timer.now}, so they are non-decreasing by
    construction; the sink additionally clamps each stamp to be at least
    the previous one as a backstop (and to make [elapsed] monotone with
    the event stream).

    Event schema: [{"t": seconds_since_sink_creation, "kind": str,
    "job": str?, "role": str?, "pid": int?, ...kind-specific fields}].

    Spans ([kind = "span"], plus [name], [ctx], [dur]) and their
    attributes:
    - engine: [queue_wait]; [exec] — the job's result: [status], and
      [value]/[upper]/[calls]/[iters]/[cache]/[certified] for solves,
      [accepted]/[bound]/[iters] for decisions, [error] for failures;
      one span per profiler row under [exec] ([solve], [load],
      [decision_call], [iteration], [expm], …) with its [count]; and
      [job] ([status]) when the engine minted the trace root;
    - serve: [request] — [requested_eps], [served_eps], [degrade_level];
    - coordinator: [queue_wait]/[reroute_wait] ([worker]), [assign]
      ([worker], [status] — a result status or ["rerouted"]), and [job]
      ([status]) when it minted the root;
    - client: [request] ([status]).

    Point events are exactly {!point_kinds}. *)

open Psdp_prelude

type sink

val null : sink
(** Discards everything (the default — telemetry is strictly opt-in). *)

val memory : unit -> sink
(** Buffers events in memory; read them back with {!events}. *)

val channel : ?flush_every:int -> out_channel -> sink
(** Writes each event as one JSON line. [flush_every] (default 1)
    batches flushes: the channel is flushed after every [flush_every]th
    event rather than after each one. The default preserves crash
    post-mortem semantics — a concurrent reader (or a crashed run's
    post-mortem) sees every complete record; raise it to take per-event
    I/O off the emission path on high-frequency traces. The channel is
    not closed by the sink. *)

val enabled : sink -> bool
(** [false] exactly for {!null} — lets callers skip span bookkeeping
    (context derivation, duration math) when telemetry is off. *)

val set_role : sink -> string -> unit
(** Tag every subsequent event with this process's role (e.g.
    ["worker"]) and pid, so merged multi-process streams stay
    attributable. Call once, before the first event. *)

val emit : sink -> ?job:string -> kind:string -> (string * Json.t) list -> unit
(** [emit sink ~job ~kind fields] records one event. [fields] must not
    rebind ["t"], ["kind"] or ["job"]. *)

val span :
  sink ->
  ?job:string ->
  ctx:Psdp_obs.Trace_context.t ->
  name:string ->
  dur:float ->
  (string * Json.t) list ->
  unit
(** Emit a [span] event: a named segment of [dur] seconds whose
    identity and tree position are the given context (its span id is
    this span; its parent id links it under the owner's span). The
    event stamp marks the span's end on the local clock;
    {!Psdp_obs.Trace_assemble} orders strictly by parent links across
    processes. *)

val flush_sink : sink -> unit
(** Force any batched events out to the channel. No-op for {!null} and
    {!memory} sinks. *)

val point_kinds : string list
(** Every non-span event kind the program emits:
    - engine: [decision_call], [checkpoint], [engine_started],
      [engine_stopped]; faults [job_fault], [job_retry],
      [job_quarantined], [store_fault], [breaker_open],
      [runner_restarted], [sketch_resample]; recovery
      [recovery_started], [job_recovered], [resume],
      [snapshot_rejected], [recovery_skipped], [journal_torn];
    - serve: [serve_rejected];
    - coordinator and standby: [coordinator_started],
      [coordinator_stopped], [worker_joined], [worker_dead],
      [job_reattached], [job_resubmit_deduped], [protocol_failure],
      [deposed_hello], [standby_attached], [standby_detached],
      [standby_tailing], [standby_dismissed], [standby_promoted];
    - worker: [worker_registered], [worker_reconnect_backoff],
      [fence_rejected], [result_replayed];
    - client: [client_resubmitted], [client_redirected]. *)

val events : sink -> Json.t list
(** Events recorded so far, oldest first. Empty for {!null} and
    {!channel} sinks. *)

val elapsed : sink -> float
(** Seconds since the sink was created, clamped to be monotone with the
    event stream. *)
