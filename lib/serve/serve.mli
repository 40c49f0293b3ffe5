(** SLA-aware online serving tier over the batch engine.

    The engine solves whatever it is given, in priority order, however
    long that takes. A serving workload needs three policies on top:

    - {b Admission control}: at most [queue_cap] requests outstanding.
      Request [queue_cap + 1] is {e shed} — answered immediately with a
      typed [Rejected] response instead of silently queueing into a
      latency cliff.
    - {b Deadlines}: every admitted request gets a wall-clock deadline
      ([default_deadline] unless the spec carries a tighter [timeout]),
      enforced by the engine's timeout machinery — a request that blows
      its deadline resolves as [Timed_out], never occupies a runner
      forever.
    - {b Load-adaptive ε-degradation}: as the outstanding count deepens,
      requested ε is coarsened by the bounded
      {!Psdp_fault.Degrade} ladder. Crucially, degradation never touches
      soundness: the job is {e solved and certified at the coarsened ε},
      and the response reports both the requested and the actually
      served ε, so a degraded answer is a certified answer to a
      coarser question — never an uncertified answer to the original.

    Warm-start lineage rides through the engine untouched: a spec whose
    [parent] names an ancestor digest is warm-started from the parent's
    re-verified incumbent by the execution layer (see {!Psdp_engine.Job}).

    Every response surfaces through [on_response], which fires in a
    runner domain — exactly like the engine's [on_complete] — so
    handlers must be domain-safe. Shed requests fire [on_response]
    synchronously from {!submit}. Every {!submit} produces exactly one
    response. *)

open Psdp_engine

type config = {
  queue_cap : int;  (** max outstanding admitted requests; > 0 *)
  default_deadline : float option;
      (** seconds; applied when the spec has no tighter [timeout] *)
  degrade : Psdp_fault.Degrade.t;
      (** ε-coarsening ladder over the outstanding count *)
}

val default_config : config
(** [queue_cap = 64], no deadline, no degradation. *)

type reject_reason = Queue_full | Stopped

val reject_reason_string : reject_reason -> string
(** ["queue_full"] / ["stopped"]. *)

type outcome = Done of Job.result | Rejected of reject_reason

type response = {
  id : string;  (** serve-assigned when the spec's [id] was [""] *)
  requested_eps : float;
  served_eps : float;  (** = [requested_eps] unless degraded *)
  degrade_level : int;  (** ladder rung that applied; 0 = none *)
  outcome : outcome;
  latency : float;  (** admission → response, seconds; 0 for sheds *)
}

val response_to_json : response -> Psdp_prelude.Json.t
(** The engine's result JSON (for completed jobs) extended with
    [requested_eps] / [served_eps] / [degrade_level] / [latency];
    sheds render as [{"id", "status":"rejected", "reason", ...}]. *)

type t

val create :
  ?metrics:Psdp_obs.Metrics.t ->
  ?slo:Psdp_obs.Slo.t ->
  config ->
  make_engine:(on_complete:(Job.result -> unit) -> Engine.t) ->
  on_response:(response -> unit) ->
  unit ->
  t
(** [make_engine ~on_complete] must build the engine with exactly that
    completion callback (the serve tier needs to intercept completions;
    an engine's [on_complete] is fixed at creation). The engine is owned:
    {!shutdown} shuts it down. [metrics] additionally exposes
    [psdp_serve_*] series and samples the engine cache's
    [psdp_cache_*] gauges on every response. [slo] feeds every completed
    request's admission-to-response latency into the tracker, so burn
    rates track the serving path specifically (sheds never count: a
    rejected request has no latency to misreport). When the engine's
    trace sink is live, each admitted request gets exactly one "request"
    span — its admission-to-response latency, with [requested_eps],
    [served_eps] and [degrade_level] — that the engine's spans parent
    under; a shed request gets a [serve_rejected] point event instead. *)

val engine : t -> Engine.t

val submit : t -> Job.spec -> unit
(** Admit or shed. Exactly one [on_response] follows — synchronously
    (sheds, or admission-time submit failures) or from a runner domain
    on completion. *)

val depth : t -> int
(** Outstanding admitted requests right now (the degradation ladder's
    load signal). *)

val shutdown : t -> unit
(** Stop admitting ({!submit} now sheds with [Stopped]), drain the
    engine — every admitted request still gets its response — and shut
    the engine down. Idempotent. *)
