open Psdp_prelude
open Psdp_engine
module Metrics = Psdp_obs.Metrics
module Trace_context = Psdp_obs.Trace_context
module Slo = Psdp_obs.Slo
module Degrade = Psdp_fault.Degrade

type config = {
  queue_cap : int;
  default_deadline : float option;
  degrade : Degrade.t;
}

let default_config =
  { queue_cap = 64; default_deadline = None; degrade = Degrade.none }

type reject_reason = Queue_full | Stopped

let reject_reason_string = function
  | Queue_full -> "queue_full"
  | Stopped -> "stopped"

type outcome = Done of Job.result | Rejected of reject_reason

type response = {
  id : string;
  requested_eps : float;
  served_eps : float;
  degrade_level : int;
  outcome : outcome;
  latency : float;
}

let response_to_json r =
  let serve_fields =
    [
      ("requested_eps", Json.Num r.requested_eps);
      ("served_eps", Json.Num r.served_eps);
      ("degrade_level", Json.Num (float_of_int r.degrade_level));
      ("latency", Json.Num r.latency);
    ]
  in
  match r.outcome with
  | Done result -> (
      match Job.result_to_json result with
      | Json.Obj fields -> Json.Obj (fields @ serve_fields)
      | other -> other)
  | Rejected reason ->
      Json.Obj
        (("id", Json.Str r.id)
        :: ("status", Json.Str "rejected")
        :: ("reason", Json.Str (reject_reason_string reason))
        :: serve_fields)

type meters = {
  reg : Metrics.t;
  s_requests : Metrics.counter;
  s_admitted : Metrics.counter;
  s_shed_full : Metrics.counter;
  s_shed_stopped : Metrics.counter;
  s_degraded : Metrics.counter;
  s_depth : Metrics.gauge;
  s_latency : Metrics.histogram;
  s_eps_served : Metrics.histogram;
}

let make_meters reg =
  let rejected reason =
    Metrics.counter reg ~help:"requests shed by admission control"
      ~labels:[ ("reason", reason) ] "psdp_serve_rejected_total"
  in
  {
    reg;
    s_requests =
      Metrics.counter reg ~help:"requests offered to the serve tier"
        "psdp_serve_requests_total";
    s_admitted =
      Metrics.counter reg ~help:"requests admitted past admission control"
        "psdp_serve_admitted_total";
    s_shed_full = rejected "queue_full";
    s_shed_stopped = rejected "stopped";
    s_degraded =
      Metrics.counter reg ~help:"admitted requests whose eps was coarsened"
        "psdp_serve_degraded_total";
    s_depth =
      Metrics.gauge reg ~help:"admitted requests outstanding"
        "psdp_serve_queue_depth";
    s_latency =
      Metrics.histogram reg ~help:"admission-to-response latency, seconds"
        "psdp_serve_latency_seconds";
    s_eps_served =
      Metrics.histogram reg ~lo:0.001 ~ratio:1.5 ~buckets:24
        ~help:"eps actually served (after any degradation)"
        "psdp_serve_eps_served";
  }

type pending_meta = {
  p_requested_eps : float;
  p_served_eps : float;
  p_level : int;
  p_admitted_at : float;
  p_ctx : Trace_context.t option;
      (* this request's span; the engine's spans parent under it *)
}

type t = {
  cfg : config;
  eng : Engine.t;
  mutex : Mutex.t;
  pending : (string, pending_meta) Hashtbl.t;
  mutable outstanding : int;
  mutable seq : int;
  mutable stopped : bool;
  meters : meters option;
  slo : Slo.t option;
  on_response : response -> unit;
}

let cache_status_of_result (r : Job.result) =
  match r.Job.outcome with
  | Job.Solved s -> Some (Job.cache_status_string s.cache)
  | _ -> None

(* Completion interception: runs in a runner domain. Results for jobs
   the serve tier never admitted (e.g. recovered batch jobs on a shared
   engine) pass through untouched. *)
let on_engine_complete (cell : t option ref) (result : Job.result) =
  match !cell with
  | None -> ()
  | Some t -> (
      let meta =
        Mutex.lock t.mutex;
        let m = Hashtbl.find_opt t.pending result.Job.id in
        (match m with
        | Some _ ->
            Hashtbl.remove t.pending result.Job.id;
            t.outstanding <- t.outstanding - 1
        | None -> ());
        let depth = t.outstanding in
        Mutex.unlock t.mutex;
        Option.map (fun m -> (m, depth)) m
      in
      match meta with
      | None -> ()
      | Some (m, depth) ->
          let latency = Timer.now () -. m.p_admitted_at in
          (match t.slo with
          | Some slo -> Slo.observe slo latency
          | None -> ());
          (match m.p_ctx with
          | Some ctx ->
              Trace.span (Engine.trace t.eng) ~job:result.Job.id ~ctx
                ~name:"request" ~dur:latency
                [
                  ("requested_eps", Json.Num m.p_requested_eps);
                  ("served_eps", Json.Num m.p_served_eps);
                  ("degrade_level", Json.Num (float_of_int m.p_level));
                ]
          | None -> ());
          (match t.meters with
          | Some ms ->
              Metrics.set ms.s_depth (float_of_int depth);
              Metrics.observe ms.s_latency latency;
              Metrics.observe ms.s_eps_served m.p_served_eps;
              (match cache_status_of_result result with
              | Some status ->
                  Metrics.inc
                    (Metrics.counter ms.reg
                       ~help:"served solve results by cache status"
                       ~labels:[ ("status", status) ]
                       "psdp_serve_results_total")
              | None -> ());
              Cache.export_metrics ms.reg (Engine.cache t.eng)
          | None -> ());
          t.on_response
            {
              id = result.Job.id;
              requested_eps = m.p_requested_eps;
              served_eps = m.p_served_eps;
              degrade_level = m.p_level;
              outcome = Done result;
              latency;
            })

let create ?metrics ?slo cfg ~make_engine ~on_response () =
  if cfg.queue_cap <= 0 then
    invalid_arg "Serve.create: queue_cap must be positive";
  let cell = ref None in
  let eng = make_engine ~on_complete:(on_engine_complete cell) in
  let t =
    {
      cfg;
      eng;
      mutex = Mutex.create ();
      pending = Hashtbl.create 64;
      outstanding = 0;
      seq = 0;
      stopped = false;
      meters = Option.map make_meters metrics;
      slo;
      on_response;
    }
  in
  cell := Some t;
  t

let engine t = t.eng

let depth t =
  Mutex.lock t.mutex;
  let d = t.outstanding in
  Mutex.unlock t.mutex;
  d

let shed t ~id ~eps reason =
  (match t.meters with
  | Some ms ->
      Metrics.inc
        (match reason with
        | Queue_full -> ms.s_shed_full
        | Stopped -> ms.s_shed_stopped)
  | None -> ());
  Trace.emit (Engine.trace t.eng) ~job:id ~kind:"serve_rejected"
    [ ("reason", Json.Str (reject_reason_string reason)) ];
  t.on_response
    {
      id;
      requested_eps = eps;
      served_eps = eps;
      degrade_level = 0;
      outcome = Rejected reason;
      latency = 0.0;
    }

let submit t (spec : Job.spec) =
  (match t.meters with Some ms -> Metrics.inc ms.s_requests | None -> ());
  Mutex.lock t.mutex;
  t.seq <- t.seq + 1;
  let id =
    if spec.Job.id = "" then Printf.sprintf "serve-%d" t.seq else spec.Job.id
  in
  if t.stopped then begin
    Mutex.unlock t.mutex;
    shed t ~id ~eps:spec.Job.eps Stopped
  end
  else if t.outstanding >= t.cfg.queue_cap then begin
    Mutex.unlock t.mutex;
    shed t ~id ~eps:spec.Job.eps Queue_full
  end
  else begin
    t.outstanding <- t.outstanding + 1;
    let load = t.outstanding in
    (* ε-degradation keyed on the post-admission depth: the deeper the
       backlog, the coarser the answer — bounded by the ladder's cap, so
       a served ε can never leave (0,1). *)
    let served_eps, level = Degrade.apply t.cfg.degrade ~load spec.Job.eps in
    let timeout =
      match (spec.Job.timeout, t.cfg.default_deadline) with
      | Some a, Some b -> Some (Float.min a b)
      | (Some _ as x), None | None, (Some _ as x) -> x
      | None, None -> None
    in
    (* The serve tier owns a "request" span per admitted request: a
       child of whatever context the caller shipped in the spec, else a
       fresh root. The engine's spans parent under it via the spec. *)
    let p_ctx =
      if Trace.enabled (Engine.trace t.eng) then
        Some
          (match spec.Job.trace with
          | Some parent -> Trace_context.child parent
          | None -> Trace_context.mint ())
      else None
    in
    Hashtbl.replace t.pending id
      {
        p_requested_eps = spec.Job.eps;
        p_served_eps = served_eps;
        p_level = level;
        p_admitted_at = Timer.now ();
        p_ctx;
      };
    Mutex.unlock t.mutex;
    (match t.meters with
    | Some ms ->
        Metrics.inc ms.s_admitted;
        Metrics.set ms.s_depth (float_of_int load);
        if level > 0 then Metrics.inc ms.s_degraded
    | None -> ());
    let spec' =
      { spec with Job.id; eps = served_eps; timeout;
        trace = (match p_ctx with Some _ -> p_ctx | None -> spec.Job.trace) }
    in
    match Engine.submit t.eng spec' with
    | _handle -> ()
    | exception _ ->
        (* Engine refused (e.g. shut down under us): undo the admission
           and shed, preserving the one-response-per-submit contract. *)
        Mutex.lock t.mutex;
        Hashtbl.remove t.pending id;
        t.outstanding <- t.outstanding - 1;
        Mutex.unlock t.mutex;
        shed t ~id ~eps:spec.Job.eps Stopped
  end

let shutdown t =
  Mutex.lock t.mutex;
  let was_stopped = t.stopped in
  t.stopped <- true;
  Mutex.unlock t.mutex;
  if not was_stopped then Engine.shutdown t.eng
