(** The job-execution core, shared by every front end that runs solves.

    {!Engine} (the in-process batch service) and the distributed worker
    ([Psdp_dist.Worker], which wraps an engine per node) both ultimately
    execute one {!Job.spec} at a time: load the instance, consult the
    result cache, adopt a recovery snapshot when one provably matches,
    run the solver with checkpoint/trace/metric plumbing, re-verify the
    certificate, and resample an unlucky JL sketch once. This module is
    that shared core, split out of the engine so job {e routing}
    (scheduling, retry, supervision, journaling — [engine.ml]) and job
    {e execution} (this file) evolve independently and the distributed
    layer never forks the solve path.

    Execution is synchronous and policy-free: cancellation, deadlines,
    retries and durability decisions are injected by the caller through
    {!ctx}. Everything here may be called from any domain; the contexts
    hold only domain-safe components. *)

open Psdp_core

exception Cancelled_exn
(** Raised by the caller's [check] to abort between iterations. *)

exception Timed_out_exn
(** Raised by the caller's [check] when the job deadline passed. *)

exception Bad_input of string
(** Instance failed to load or parse — a {e permanent} fault. *)

exception Store_crash of string
(** A [persist] callback failed while checkpointing — a {e transient}
    fault that must not masquerade as a solver verdict. *)

type hooks = {
  on_iteration : unit -> unit;  (** every solver iteration *)
  on_decision_call : unit -> unit;  (** every bisection decision call *)
  observe_call_iterations : int -> unit;
      (** iterations attributed to one finished decision call *)
  on_sketch_resample : unit -> unit;
      (** a failed sketched certificate triggered a fresh-seed rerun *)
}
(** Metric taps. The engine mirrors these into its Prometheus series; a
    bare caller uses {!no_hooks}. *)

val no_hooks : hooks

type ctx = {
  pool : Psdp_parallel.Pool.t;
  cache : Cache.t;
  trace : Trace.sink;
  persist : (job:string -> Psdp_store.Snapshot.t -> unit) option;
      (** called after every decision call with the current bisection
          state as a snapshot; the callback decides frequency (via
          [snap.calls]) and durability, and raises {!Store_crash} when
          the store is broken *)
  hooks : hooks;
}

val load_instance : Job.source -> Instance.t
(** Load (or unwrap) a job's instance. Raises {!Bad_input}. *)

val run :
  ctx ->
  ?resume:Psdp_store.Snapshot.t ->
  check:(unit -> unit) ->
  prof:Psdp_obs.Profiler.span ->
  Job.spec ->
  Job.outcome
(** Execute one job to its solver outcome. [check] is evaluated between
    iterations and may raise {!Cancelled_exn} / {!Timed_out_exn} (the
    caller maps those to terminal results). [resume] seeds the bisection
    when the snapshot's digest/ε/backend/mode match the loaded instance
    exactly; a mismatch is traced as [snapshot_rejected] and ignored.
    Raises whatever the solver, [check] or [persist] raise — fault
    classification and retries belong to the caller. *)
