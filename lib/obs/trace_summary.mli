(** Post-hoc analytics over an engine telemetry trace.

    Turns the JSONL stream written by [psdp batch --trace] /
    [psdp serve --trace] (schema: {!Psdp_engine.Trace}) into the tables
    behind [psdp trace summarize]: per-job queue wait and run time,
    per-phase latency quantiles (p50/p90/p99 via
    {!Psdp_prelude.Stats.quantile}), a work-attribution table over the
    profiler spans under each job's [exec] span, and cache
    hit/warm/parent/miss counts.

    Spans are read only through {!Trace_assemble}, the same reader as
    [psdp trace critical-path] and [psdp slo report]; the point events
    that have no span ([decision_call], fault-layer kinds,
    [serve_rejected]) are counted from the raw stream.

    The summarizer is schema-tolerant in the same way the engine's other
    consumers are: unknown event kinds are skipped, and lines that fail
    to parse as JSON at all (a torn tail from a crashed writer, alien
    content) are counted in {!field-t.skipped} rather than failing the
    summary — operators read these files mid-incident. *)

type phase_stat = {
  phase : string;
  samples : int;
  total : float;
  p50 : float;
  p90 : float;
  p99 : float;  (** quantiles are [nan] when there are no samples *)
}

type job_row = {
  job : string;
  status : string;
  queue_wait : float;
      (** the engine's [queue_wait] span beside the job's [exec] span;
          [nan] when absent *)
  run : float;  (** the [exec] span's duration (the result's [elapsed]) *)
  calls : int;
  iters : int;
}

type attribution_row = {
  path : string;
      (** span path below [exec], e.g. ["solve/decision_call/iteration"] *)
  count : int;
  seconds : float;
  share : float;  (** fraction of the summed root-span seconds *)
}

type t = {
  events : int;
  skipped : int;  (** unparseable lines, skipped with a warning *)
  span : float;  (** seconds between first and last event stamp *)
  jobs : job_row list;
      (** one per job with an [exec] span (the last one wins), in the
          order the jobs' traces first appear — start order *)
  latencies : phase_stat list;
      (** [queue_wait], [job_run], and [decision_call] (gaps between
          consecutive decision-call stamps within a job, the last one
          closed by the [exec] span) *)
  attribution : attribution_row list;
      (** summed over jobs; empty when no span hangs under [exec] *)
  cache : (string * int) list;  (** [exec] span [cache] attribute → count *)
  faults : (string * int) list;
      (** fault-layer event counts ([job_fault], [job_retry],
          [job_quarantined], [store_fault], [breaker_open],
          [runner_restarted], [sketch_resample]); empty for clean runs *)
  serve : (string * int) list;
      (** ["requests"] ([request] spans — one per admitted serve request,
          or per client submission), ["degraded"] (those with a positive
          [degrade_level]) and ["rejected"] ([serve_rejected] events);
          zero counts are left out, so it is empty for batch traces *)
}

val of_events : Psdp_prelude.Json.t list -> t
(** Summarize parsed events. Objects without [t]/[kind] are ignored. *)

val of_lines : string list -> t
(** Parse JSONL lines (blank lines allowed) and summarize. Malformed
    lines are skipped and counted, never fatal. *)

val load : string -> (t, string) result
(** [of_lines] over a file's contents; only I/O errors come back as
    [Error] — an empty or partially torn file yields an [Ok] summary. *)

val pp : Format.formatter -> t -> unit
(** The human-readable report [psdp trace summarize] prints. *)
