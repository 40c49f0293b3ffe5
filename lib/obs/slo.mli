(** Serve-tier SLOs: a declared latency objective ("99% of requests
    under 500ms") tracked as multi-window error-budget burn rates.

    The error budget is the tolerated breach fraction [1 - objective];
    a window's burn rate is its observed breach fraction divided by the
    budget, so burn 1.0 consumes the budget exactly as fast as it
    accrues. The live tracker exports [psdp_slo_*] series when given a
    registry; {!report_of_events} computes the same numbers offline
    from a trace stream for [psdp slo report]. *)

type target = { objective : float; latency : float }

val make_target : objective:float -> latency:float -> target
(** Validates [objective] in (0,1) and [latency] > 0; raises
    [Invalid_argument] otherwise. *)

val parse_target : string -> (target, string) result
(** ["0.99@0.5"] — 99% of requests under 0.5 seconds. *)

val target_to_string : target -> string
val budget : target -> float  (** [1 - objective] *)

(** {1 Live tracker} *)

type t

val create :
  ?registry:Metrics.t -> ?windows:(string * float) list -> target -> t
(** [windows] are (label, span-seconds) pairs, default 5m and 1h, each
    a 60-slot ring rotated lazily — no background thread. With a
    registry, exports [psdp_slo_latency_target_seconds],
    [psdp_slo_objective], [psdp_slo_requests_total],
    [psdp_slo_breaches_total], [psdp_slo_burn_rate{window=...}] and
    [psdp_slo_error_budget_remaining]. *)

val observe : ?now:float -> t -> float -> unit
(** Record one request latency. [now] (default {!Psdp_prelude.Timer.now})
    anchors window rotation; tests inject it for determinism. *)

val burn_rate : ?now:float -> t -> string -> float
(** Current burn for a window label; raises on unknown labels. *)

val requests : t -> int
val breaches : t -> int

(** {1 Offline report} *)

type report = {
  r_target : target;
  r_requests : int;
  r_breaches : int;
  r_compliance : float;  (** observed in-target fraction *)
  r_p50 : float;
  r_p95 : float;
  r_p99 : float;  (** latency quantiles; [nan] with no samples *)
  r_burn : (string * float) list;  (** trailing windows from the last stamp *)
  r_budget_consumed : float;  (** breaches / tolerated breaches *)
}

val report :
  ?windows:(string * float) list -> target -> (float * float) list -> report
(** From (stamp, latency) samples; windows trail the latest stamp. *)

val report_of_events :
  ?windows:(string * float) list -> target -> Psdp_prelude.Json.t list -> report
(** Samples from a trace stream's spans, read through
    {!Trace_assemble}: [request] span durations when the stream has any
    (serve admission-to-response, or client submission-to-result),
    else the engine's [exec] span durations. Each sample is stamped
    with its span's local end. *)

val report_to_json : report -> Psdp_prelude.Json.t
val pp_report : Format.formatter -> report -> unit
