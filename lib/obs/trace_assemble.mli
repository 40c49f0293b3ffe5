(** Cross-process trace assembly: merge the JSONL span streams written
    by client, coordinator, worker and serve processes into one tree
    per trace id, then attribute wall clock to named segments.

    Events of kind ["span"] carry a {!Trace_context} string ([ctx]), a
    [name], a self-reported duration [dur], and the emitting process's
    [role]/[pid]. Tree shape comes from parent links only: stamps from
    different processes are never compared (each file uses its own
    monotonic clock, so cross-host skew is unbounded), and sibling
    order falls back to names across processes. A span whose parent is
    not in the merged streams stays visible as an orphan root. *)

type span = {
  ctx : Trace_context.t;
  name : string;
  role : string;  (** ["?"] when the stream was written untagged *)
  pid : int;  (** [0] when untagged *)
  job : string option;
  dur : float;  (** seconds, self-reported by the emitting process *)
  finish : float;  (** local emission stamp; same-process order only *)
  attrs : (string * Psdp_prelude.Json.t) list;
      (** the event's remaining fields — the emitter's payload, e.g. an
          engine [exec] span's [status]/[calls]/[iters]/[cache], a
          profiler span's [count], a serve [request] span's
          [served_eps]/[degrade_level], a coordinator [assign] span's
          [worker]/[status] *)
}

type node = { span : span; mutable children : node list; mutable self : float }

type tree = {
  trace_id : string;
  t_job : string option;  (** first job id any span carried *)
  roots : node list;
  span_count : int;
  procs : (string * int) list;  (** distinct (role, pid) contributors *)
  orphans : int;  (** parent link pointed outside the merged streams *)
}

type t = {
  trees : tree list;  (** in first-appearance order *)
  spans : int;
  skipped : int;  (** unparseable lines and non-span events *)
}

val of_events : Psdp_prelude.Json.t list -> t
val of_lines : string list -> t
(** Lenient: a torn tail or alien line costs one skipped count. *)

val load_files : string list -> (t, string) result
(** Concatenate and assemble several per-process trace files; only
    I/O errors are [Error]. *)

val parse_lines : string list -> Psdp_prelude.Json.t list * int
(** The lenient JSONL parse behind {!of_lines}: the events, and the
    number of non-blank lines that did not parse. *)

val read_files : string list -> (Psdp_prelude.Json.t list * int, string) result
(** {!parse_lines} over the concatenated files; only I/O errors are
    [Error]. Point events are kept, for readers that also count them. *)

val nodes : t -> node list
(** Every assembled span, tree by tree, each tree in pre-order
    (a parent before its children). *)

type seg = {
  path : string;  (** slash-joined names from the root *)
  role : string;
  seconds : float;
  share : float;  (** of the tree's total (summed root durations) *)
}

val total : tree -> float
(** Summed root durations — the tree's end-to-end wall clock. *)

val attributed : tree -> float
(** Summed self times; equals {!total} when spans nest properly, so
    [attributed /. total] is the named-segment coverage fraction. *)

val attribution : tree -> seg list
(** Every span's exclusive (self) time, largest first. *)

val critical_path : tree -> seg list
(** Root-to-leaf chain following the heaviest child at each step;
    [seconds] is each span's full duration. *)

val pp_tree : Format.formatter -> tree -> unit
val pp_segments : Format.formatter -> seg list -> unit
