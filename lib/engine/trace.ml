open Psdp_prelude

type target = Null | Memory of Json.t list ref | Channel of out_channel

type sink = {
  mutex : Mutex.t;
  t0 : float;
  mutable last : float;  (* latest stamp handed out; enforces monotonicity *)
  target : target;
  flush_every : int;
  mutable unflushed : int;  (* events written since the last flush *)
  mutable ident : (string * int) option;  (* process role + pid tag *)
}

let make ?(flush_every = 1) target =
  if flush_every < 1 then invalid_arg "Trace: flush_every must be >= 1";
  {
    mutex = Mutex.create ();
    t0 = Timer.now ();
    last = 0.0;
    target;
    flush_every;
    unflushed = 0;
    ident = None;
  }

let null = make Null
let memory () = make (Memory (ref []))
let channel ?flush_every oc = make ?flush_every (Channel oc)
let enabled sink =
  match sink.target with Null -> false | Memory _ | Channel _ -> true

(* Identity tagging is what lets Trace_assemble tell which process a
   span came from once several streams are merged: set once per
   process, before the first event, with the command's role. *)
let set_role sink role =
  sink.ident <- Some (role, Unix.getpid ())

let ident_fields sink =
  match sink.ident with
  | None -> []
  | Some (role, pid) ->
      [ ("role", Json.Str role); ("pid", Json.Num (float_of_int pid)) ]

let stamp sink =
  let t = Float.max sink.last (Timer.now () -. sink.t0) in
  sink.last <- t;
  t

(* The timestamp is the one field that must be taken under the sink mutex
   (the monotonic clamp reads and writes [last], and the stamp order must
   match the write order so readers see non-decreasing [t] line by line).
   Everything else about the event is rendered before taking the lock, so
   concurrent runner domains serialize only on stamp + write, never on
   JSON formatting. *)
let emit sink ?job ~kind fields =
  match sink.target with
  | Null -> ()
  | Memory buf ->
      let header =
        ("kind", Json.Str kind)
        :: ((match job with Some j -> [ ("job", Json.Str j) ] | None -> [])
           @ ident_fields sink)
      in
      Mutex.lock sink.mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock sink.mutex)
        (fun () ->
          let t = stamp sink in
          buf := Json.Obj (("t", Json.Num t) :: (header @ fields)) :: !buf)
  | Channel oc ->
      (* Rendered as {"t":<stamp>,<tail>}: the tail is the event minus its
         leading "t" field, formatted outside the lock. *)
      let header =
        ("kind", Json.Str kind)
        :: ((match job with Some j -> [ ("job", Json.Str j) ] | None -> [])
           @ ident_fields sink)
      in
      let tail =
        match Json.to_string (Json.Obj (header @ fields)) with
        | "{}" -> "}"
        | s -> "," ^ String.sub s 1 (String.length s - 1)
      in
      Mutex.lock sink.mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock sink.mutex)
        (fun () ->
          let t = stamp sink in
          output_string oc "{\"t\":";
          output_string oc (Json.to_string (Json.Num t));
          output_string oc tail;
          output_char oc '\n';
          sink.unflushed <- sink.unflushed + 1;
          if sink.unflushed >= sink.flush_every then begin
            flush oc;
            sink.unflushed <- 0
          end)

let flush_sink sink =
  match sink.target with
  | Null | Memory _ -> ()
  | Channel oc ->
      Mutex.lock sink.mutex;
      flush oc;
      sink.unflushed <- 0;
      Mutex.unlock sink.mutex

let point_kinds =
  [
    "decision_call"; "checkpoint"; "engine_started"; "engine_stopped";
    "job_fault"; "job_retry"; "job_quarantined"; "store_fault";
    "breaker_open"; "runner_restarted"; "sketch_resample";
    "recovery_started"; "job_recovered"; "resume"; "snapshot_rejected";
    "recovery_skipped"; "journal_torn"; "serve_rejected";
    "coordinator_started"; "coordinator_stopped"; "worker_joined";
    "worker_dead"; "job_reattached"; "job_resubmit_deduped";
    "protocol_failure"; "deposed_hello"; "standby_attached";
    "standby_detached"; "standby_tailing"; "standby_dismissed";
    "standby_promoted"; "worker_registered"; "worker_reconnect_backoff";
    "fence_rejected"; "result_replayed"; "client_resubmitted";
    "client_redirected";
  ]

let events sink =
  match sink.target with
  | Memory buf ->
      Mutex.lock sink.mutex;
      let evs = !buf in
      Mutex.unlock sink.mutex;
      List.rev evs
  | Null | Channel _ -> []

let elapsed sink =
  Mutex.lock sink.mutex;
  let t = stamp sink in
  Mutex.unlock sink.mutex;
  t

(* A span event: a named, durationed segment identified by a trace
   context (the context's span id IS the span; its parent id links it
   into the cross-process tree). The event's own stamp marks the span's
   end on this process's clock — Trace_assemble derives the local start
   as [t - dur] and never compares stamps across processes. *)
let span sink ?job ~ctx ~name ~dur fields =
  emit sink ?job ~kind:"span"
    (("name", Json.Str name)
    :: ("ctx", Json.Str (Psdp_obs.Trace_context.to_string ctx))
    :: ("dur", Json.Num (Float.max 0.0 dur))
    :: fields)
