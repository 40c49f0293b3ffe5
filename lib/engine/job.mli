(** Job specifications and results — the engine's unit of work.

    A job names an instance (a {!Psdp_instances.Loader} file or an
    in-memory instance), an operation ([solve] = full approxPSDP,
    [decide] = one ε-decision call at a threshold), an accuracy target,
    a backend/mode pair, and scheduling metadata (priority, timeout).

    The JSON codecs here define the engine's three wire surfaces:
    manifest files for [psdp batch], request lines for [psdp serve], and
    result lines for both. A manifest is line-delimited JSON with blank
    lines and [#] comments allowed:
    {v
    {"id": "bf-fine", "op": "solve", "file": "bf.inst", "eps": 0.05}
    {"op": "decide", "file": "cyc.inst", "threshold": 2.5, "eps": 0.2}
    {"op": "solve", "file": "bf.inst", "eps": 0.05, "backend": "sketched",
     "priority": 10, "timeout": 30.0}
    v}
    Unknown fields are ignored (forward compatibility); a missing [id]
    is filled in from the line number. *)

open Psdp_core

type op = Solve | Decide of { threshold : float }

type source =
  | File of string  (** loaded (and digested) by the runner at start time *)
  | Inline of Instance.t

type spec = {
  id : string;  (** ["" ] lets the engine assign ["job-<seq>"] *)
  op : op;
  source : source;
  eps : float;
  backend : Decision.backend;
  mode : Decision.mode;
  priority : int;  (** higher runs first; default 0 *)
  timeout : float option;  (** wall-clock seconds; checked between solver
                               iterations (best effort, never mid-kernel) *)
  parent : string option;
      (** warm-start lineage: instance-content digest of a previously
          solved ancestor. When the job's own digest has no cached
          incumbent, the runner looks the parent digest up and adopts
          its solution vector as a warm start — the vector is
          re-verified against {e this} instance before being trusted,
          and the parent's upper bound is never reused (it belongs to a
          different instance), so lineage can only speed things up,
          never corrupt the certificate. *)
  trace : Psdp_obs.Trace_context.t option;
      (** distributed trace context: the span the submitter owns, under
          which the executing engine parents its own spans. Travels as
          an optional ["trace"] string field in the spec's JSON form,
          parsed leniently — an absent or corrupt context decodes to
          [None] (the receiver mints a fresh root), never to an
          error. *)
}

val solve_spec :
  ?id:string -> ?eps:float -> ?backend:Decision.backend ->
  ?mode:Decision.mode -> ?priority:int -> ?timeout:float ->
  ?parent:string -> ?trace:Psdp_obs.Trace_context.t -> source -> spec
(** Defaults: [eps = 0.1], [backend = Exact],
    [mode = Adaptive {check_every = 10}], [priority = 0], no timeout,
    no parent, no trace context. *)

val decide_spec :
  ?id:string -> ?eps:float -> ?backend:Decision.backend ->
  ?mode:Decision.mode -> ?priority:int -> ?timeout:float ->
  ?trace:Psdp_obs.Trace_context.t -> threshold:float -> source -> spec

type cache_status =
  | Hit  (** exact (digest, ε, backend, mode) cache entry returned *)
  | Warm  (** warm-started from this instance's own cached incumbent *)
  | Parent  (** warm-started from the declared parent digest's incumbent *)
  | Miss

type outcome =
  | Solved of {
      value : float;
      upper_bound : float;
      decision_calls : int;  (** 0 on a cache hit: none were made *)
      iterations : int;
      cache : cache_status;
      certified : bool;  (** final dual re-verified by the engine *)
    }
  | Decided of {
      accepted : bool;
          (** [true]: dual found, OPT ≥ [bound]. [false]: covering
              certificate, OPT ≤ [bound] (threshold-rejected). *)
      bound : float;
      iterations : int;
    }
  | Failed of string  (** bad input, solver precondition, unexpected exn *)
  | Cancelled
  | Timed_out

type result = { id : string; outcome : outcome; elapsed : float }

(** {1 Canonical key strings}

    Used as cache-key components and in the JSON codecs. They encode
    everything that affects the numerical result: the sketched backend's
    seed and dimension, the adaptive mode's check period. *)

val backend_key : Decision.backend -> string
val mode_key : Decision.mode -> string

val cache_status_string : cache_status -> string
(** ["hit"] / ["warm"] / ["parent"] / ["miss"] — the [cache] field of
    the result JSON and of the engine's [exec] trace span. *)

val status_string : outcome -> string
(** ["ok"] / ["rejected"] / ["failed"] / ["cancelled"] / ["timeout"] —
    the [status] field of the result JSON and of the trace spans that
    close a job ([exec], [job], [assign], [request]). *)

(** {1 JSON codecs} *)

val spec_of_json : Psdp_prelude.Json.t -> (spec, string) Stdlib.result
(** Fields: [op] ("solve" default, or "decide" with required numeric
    [threshold]), [file] (required — inline sources have no JSON form),
    [id], [eps], [backend] ("exact"/"sketched"), [seed] and [sketch_dim]
    (sketched backend), [mode] ("adaptive"/"faithful"), [check_every],
    [priority], [timeout], [parent] (warm-start ancestor digest). *)

val spec_to_json : spec -> (Psdp_prelude.Json.t, string) Stdlib.result
(** Inverse of {!spec_of_json} for [File] specs — the form the
    checkpoint store's journal records. [spec_of_json (spec_to_json s)]
    rebuilds [s] exactly. [Inline] sources have no JSON form and return
    [Error]; the engine saves them to a file first. *)

val result_to_json : result -> Psdp_prelude.Json.t
(** One flat object: [id], [status]
    ("ok"/"rejected"/"failed"/"cancelled"/"timeout"), [elapsed], and the
    outcome's fields ([value], [upper], [calls], [iters], [cache],
    [certified] for solves; [accepted], [bound], [iters] for decisions;
    [error] for failures). *)

val result_of_json : Psdp_prelude.Json.t -> (result, string) Stdlib.result
(** Inverse of {!result_to_json} — the distributed layer ships results
    between worker and coordinator in exactly the reported form.
    [result_of_json (result_to_json r)] rebuilds [r] (up to non-finite
    floats, which JSON cannot carry: {!result_to_json} emits them as
    [null], which decodes back as [infinity] for a decision's [bound]
    and [0] elsewhere). *)

val parse_manifest :
  ?dir:string -> string -> (spec list, string) Stdlib.result
(** Parse a whole manifest text. Relative [file] paths are resolved
    against [dir] when given (the CLI passes the manifest's directory).
    The error names the offending line. *)
