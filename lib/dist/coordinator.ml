open Psdp_prelude
open Psdp_engine
module Store = Psdp_store.Store
module Journal = Psdp_store.Journal
module Checksum = Psdp_store.Checksum
module Metrics = Psdp_obs.Metrics
module Trace_context = Psdp_obs.Trace_context

let log_src = Logs.Src.create "psdp.dist.coord" ~doc:"distributed coordinator"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  name : string;
  heartbeat_every : float;
  heartbeat_grace : float;
  max_payload : int;
}

let default_config =
  {
    name = "coordinator";
    heartbeat_every = 1.0;
    heartbeat_grace = 5.0;
    max_payload = Frame.default_max_payload;
  }

type meters = {
  m_workers : Metrics.gauge;
  m_submitted : Metrics.counter;
  m_completed : Metrics.counter;
  m_queued : Metrics.gauge;
  m_reroutes : Metrics.counter;
  m_hb_misses : Metrics.counter;
  m_rx_bytes : Metrics.counter;
  m_tx_bytes : Metrics.counter;
  m_epoch : Metrics.gauge;
  m_standbys : Metrics.gauge;
  m_rep_lag : Metrics.gauge;
  m_rep_records : Metrics.counter;
  m_rep_bytes : Metrics.counter;
  m_failovers : Metrics.counter;
  m_deposed : Metrics.counter;
  m_resubmits : Metrics.counter;
  m_reg : Metrics.t;
}

let make_meters reg =
  {
    m_workers =
      Metrics.gauge reg ~help:"workers currently registered"
        "psdp_dist_workers";
    m_submitted =
      Metrics.counter reg ~help:"jobs accepted from clients"
        "psdp_dist_jobs_submitted_total";
    m_completed =
      Metrics.counter reg ~help:"results received from workers"
        "psdp_dist_jobs_completed_total";
    m_queued =
      Metrics.gauge reg ~help:"jobs accepted but not yet assigned"
        "psdp_dist_jobs_queued";
    m_reroutes =
      Metrics.counter reg ~help:"jobs re-queued after a worker death"
        "psdp_dist_reroutes_total";
    m_hb_misses =
      Metrics.counter reg ~help:"heartbeat periods a worker went silent"
        "psdp_dist_heartbeat_misses_total";
    m_rx_bytes =
      Metrics.counter reg ~labels:[ ("dir", "rx") ]
        ~help:"raw bytes crossing coordinator sockets"
        "psdp_dist_frame_bytes_total";
    m_tx_bytes =
      Metrics.counter reg ~labels:[ ("dir", "tx") ]
        ~help:"raw bytes crossing coordinator sockets"
        "psdp_dist_frame_bytes_total";
    m_epoch =
      Metrics.gauge reg ~help:"fencing epoch of this coordinator's reign"
        "psdp_ha_epoch";
    m_standbys =
      Metrics.gauge reg ~help:"standby coordinators tailing our WAL"
        "psdp_ha_standbys";
    m_rep_lag =
      Metrics.gauge reg
        ~help:"journal bytes not yet acknowledged by the slowest standby"
        "psdp_ha_replication_lag_bytes";
    m_rep_records =
      Metrics.counter reg ~help:"journal records streamed to standbys"
        "psdp_ha_replication_records_total";
    m_rep_bytes =
      Metrics.counter reg ~help:"journal bytes streamed to standbys"
        "psdp_ha_replication_bytes_total";
    m_failovers =
      Metrics.counter reg
        ~help:"times this process promoted from standby to primary"
        "psdp_ha_failovers_total";
    m_deposed =
      Metrics.counter reg
        ~help:"hellos carrying a fence above our epoch (a newer primary exists)"
        "psdp_ha_deposed_hellos_total";
    m_resubmits =
      Metrics.counter reg
        ~help:"idempotent resubmissions deduplicated by job id"
        "psdp_ha_resubmits_deduped_total";
    m_reg = reg;
  }

type role =
  | Pending
  | Worker_role of string
  | Client_role
  | Standby_role of { s_name : string; mutable s_acked : int }

type peer = { pid : int; conn : Transport.conn; mutable role : role }

type wstate = {
  w_name : string;
  w_peer : peer;
  w_capacity : int;
  w_jobs : (string, unit) Hashtbl.t;  (* assigned, not yet completed *)
  mutable w_last_seen : float;
  mutable w_missed : int;  (* heartbeat periods counted silent so far *)
  w_gauge : Metrics.gauge option;
}

type jstate = {
  j_spec : Job.spec;
  mutable j_worker : string option;
  mutable j_client : int option;  (* peer id to return the result to *)
  (* Tracing state. [j_ctx] is the span the coordinator parents its own
     spans under — the client's request span when the spec carried one,
     else a root minted here (the [bool] records that we own it and must
     emit the enclosing "job" span at completion). [j_wait_start] anchors
     the current queue (or reroute) wait; [j_assign] is the open
     assignment span (context + start), closed on result or reroute. *)
  mutable j_ctx : (Trace_context.t * bool) option;
  j_t0 : float;
  mutable j_wait_start : float;
  mutable j_assign : (Trace_context.t * float) option;
  mutable j_rerouted : bool;
}

type t = {
  cfg : config;
  store : Store.t option;
  meters : meters option;
  trace : Trace.sink;
  conns : (int, peer) Hashtbl.t;
  workers : (string, wstate) Hashtbl.t;
  jobs : (string, jstate) Hashtbl.t;  (* queued or running *)
  queue : string Queue.t;
  digests : (string, string) Hashtbl.t;  (* instance path -> shard key *)
  done_results : (string, Json.t) Hashtbl.t;
      (* journaled results of finished jobs, for idempotent redelivery *)
  mutable epoch : int;
  mutable doomed : int list;  (* peers to drop outside iteration *)
  mutable next_pid : int;
  mutable running : bool;
}

(* ------------------------------------------------------------------ *)
(* Sharding *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The shard key is the digest of the instance *content* when the file
   is readable here (coordinator and workers share a filesystem in the
   local-cluster deployments this serves), falling back to the path —
   still deterministic, just blind to renames. *)
let shard_key t (spec : Job.spec) =
  match spec.Job.source with
  | Job.Inline _ -> spec.Job.id
  | Job.File path -> (
      match Hashtbl.find_opt t.digests path with
      | Some k -> k
      | None ->
          let k =
            match read_file path with
            | text -> Checksum.fnv1a64_hex text
            | exception _ -> Checksum.fnv1a64_hex path
          in
          Hashtbl.replace t.digests path k;
          k)

let rendezvous t key =
  Hashtbl.fold
    (fun name w best ->
      if Hashtbl.length w.w_jobs >= w.w_capacity then best
      else
        let score = Checksum.fnv1a64 (key ^ "|" ^ name) in
        match best with
        | Some (s, _) when Int64.unsigned_compare s score >= 0 -> best
        | _ -> Some (score, w))
    t.workers None
  |> Option.map snd

(* ------------------------------------------------------------------ *)
(* Journaling and metrics helpers *)

let journal t record =
  match t.store with
  | None -> ()
  | Some store -> (
      try Store.append ~epoch:t.epoch store record
      with e ->
        Log.warn (fun m ->
            m "journal append failed (%s); continuing non-durable"
              (Printexc.to_string e)))

let set_queue_gauge t =
  match t.meters with
  | None -> ()
  | Some m -> Metrics.set m.m_queued (float_of_int (Queue.length t.queue))

let set_worker_gauges t =
  match t.meters with
  | None -> ()
  | Some m ->
      Metrics.set m.m_workers (float_of_int (Hashtbl.length t.workers));
      Hashtbl.iter
        (fun _ w ->
          match w.w_gauge with
          | Some g -> Metrics.set g (float_of_int (Hashtbl.length w.w_jobs))
          | None -> ())
        t.workers

let standby_count t =
  Hashtbl.fold
    (fun _ p acc -> match p.role with Standby_role _ -> acc + 1 | _ -> acc)
    t.conns 0

let set_rep_gauges t =
  match t.meters with
  | None -> ()
  | Some m ->
      Metrics.set m.m_standbys (float_of_int (standby_count t));
      let size =
        match t.store with Some s -> Store.journal_size s | None -> 0
      in
      let lag =
        Hashtbl.fold
          (fun _ p acc ->
            match p.role with
            | Standby_role { s_acked; _ } -> max acc (size - s_acked)
            | _ -> acc)
          t.conns 0
      in
      Metrics.set m.m_rep_lag (float_of_int lag)

let safe_send peer msg =
  try
    Transport.send peer.conn msg;
    true
  with Transport.Closed | Unix.Unix_error _ -> false

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let rec dispatch t =
  if not (Queue.is_empty t.queue) then
    match
      let id = Queue.peek t.queue in
      match Hashtbl.find_opt t.jobs id with
      | None -> `Drop
      | Some j when j.j_worker <> None -> `Drop
      | Some j -> (
          match rendezvous t (shard_key t j.j_spec) with
          | None -> `Stall  (* every live worker is at capacity *)
          | Some w -> `Assign (id, j, w))
    with
    | `Drop ->
        ignore (Queue.pop t.queue);
        dispatch t
    | `Stall -> ()
    | `Assign (id, j, w) ->
        ignore (Queue.pop t.queue);
        (* Re-parent the context before shipping: the worker's engine
           parents its spans under the assignment span, so each attempt
           of a rerouted job gets its own subtree. *)
        let assign =
          match j.j_ctx with
          | Some (base, _) when Trace.enabled t.trace ->
              Some (base, Trace_context.child base, Timer.now ())
          | _ -> None
        in
        let spec_out =
          match assign with
          | Some (_, actx, _) -> { j.j_spec with Job.trace = Some actx }
          | None -> j.j_spec
        in
        if
          safe_send w.w_peer (Proto.Submit { spec = spec_out; epoch = t.epoch })
        then begin
          (match assign with
          | Some (base, actx, now) ->
              Trace.span t.trace ~job:id ~ctx:(Trace_context.child base)
                ~name:(if j.j_rerouted then "reroute_wait" else "queue_wait")
                ~dur:(now -. j.j_wait_start)
                [ ("worker", Json.Str w.w_name) ];
              j.j_assign <- Some (actx, now)
          | None -> ());
          j.j_worker <- Some w.w_name;
          Hashtbl.replace w.w_jobs id ();
          journal t (Journal.Assigned { job = id; worker = w.w_name });
          Log.debug (fun m -> m "assigned %s to %s" id w.w_name);
          set_worker_gauges t;
          set_queue_gauge t;
          dispatch t
        end
        else begin
          (* The write failed: the worker is dead. Re-queue and let the
             death path (triggered by EOF or the heartbeat sweep) clean
             the rest up; here we just avoid losing this job. *)
          Queue.push id t.queue;
          dispatch_after_death t w.w_name
        end

and dispatch_after_death t name =
  match Hashtbl.find_opt t.workers name with
  | None -> ()
  | Some w -> worker_dead t w ~reason:"send failed"

and worker_dead t w ~reason =
  Log.warn (fun m ->
      m "worker %s dead (%s); rerouting %d job(s)" w.w_name reason
        (Hashtbl.length w.w_jobs));
  Trace.emit t.trace ~kind:"worker_dead"
    [ ("worker", Json.Str w.w_name); ("reason", Json.Str reason) ];
  Hashtbl.remove t.workers w.w_name;
  Hashtbl.remove t.conns w.w_peer.pid;
  Transport.close w.w_peer.conn;
  let rerouted = ref 0 in
  Hashtbl.iter
    (fun id () ->
      match Hashtbl.find_opt t.jobs id with
      | Some j ->
          (* Close the dead attempt's assignment span and restart the
             wait clock: the gap until the next dispatch shows up in the
             trace as an explicit "reroute_wait" segment. *)
          (match j.j_assign with
          | Some (actx, t0a) ->
              Trace.span t.trace ~job:id ~ctx:actx ~name:"assign"
                ~dur:(Timer.now () -. t0a)
                [
                  ("worker", Json.Str w.w_name);
                  ("status", Json.Str "rerouted");
                ]
          | None -> ());
          j.j_assign <- None;
          j.j_rerouted <- true;
          j.j_wait_start <- Timer.now ();
          j.j_worker <- None;
          Queue.push id t.queue;
          incr rerouted
      | None -> ())
    w.w_jobs;
  (match t.meters with
  | Some m -> Metrics.add m.m_reroutes !rerouted
  | None -> ());
  set_worker_gauges t;
  set_queue_gauge t;
  dispatch t

(* ------------------------------------------------------------------ *)
(* Message handling *)

let send_stored_result t peer ~id json =
  (match t.meters with Some m -> Metrics.inc m.m_resubmits | None -> ());
  Trace.emit t.trace ~job:id ~kind:"job_resubmit_deduped" [];
  match Job.result_of_json json with
  | Ok result -> ignore (safe_send peer (Proto.Result { result }))
  | Error e ->
      ignore
        (safe_send peer
           (Proto.Error_msg
              {
                message =
                  Printf.sprintf
                    "job %s already completed but its journaled result is \
                     unreadable: %s"
                    id e;
              }))

let accept_job t peer (spec : Job.spec) =
  if spec.Job.id = "" then
    ignore
      (safe_send peer
         (Proto.Error_msg { message = "submit: job id must not be empty" }))
  else begin
    if peer.role = Pending then peer.role <- Client_role;
    match Hashtbl.find_opt t.jobs spec.Job.id with
    | Some j ->
        (* The job is already queued or running (a reconnecting client
           resubmitting after failover): re-attach the result route, do
           not double-enqueue. *)
        j.j_client <- Some peer.pid;
        (match t.meters with Some m -> Metrics.inc m.m_resubmits | None -> ());
        Trace.emit t.trace ~job:spec.Job.id ~kind:"job_reattached" []
    | None -> (
        match Hashtbl.find_opt t.done_results spec.Job.id with
        | Some json ->
            (* Idempotent resubmission of a finished job, in this reign
               or an earlier one: replay the stored result instead of
               re-running — the client paid once. *)
            send_stored_result t peer ~id:spec.Job.id json
        | None ->
            let j_ctx =
              match spec.Job.trace with
              | Some parent -> Some (parent, false)
              | None ->
                  if Trace.enabled t.trace then Some (Trace_context.mint (), true)
                  else None
            in
            let now = Timer.now () in
            let j =
              { j_spec = spec; j_worker = None; j_client = Some peer.pid;
                j_ctx; j_t0 = now; j_wait_start = now; j_assign = None;
                j_rerouted = false }
            in
            Hashtbl.replace t.jobs spec.Job.id j;
            Queue.push spec.Job.id t.queue;
            (match Job.spec_to_json spec with
            | Ok json ->
                journal t (Journal.Submitted { job = spec.Job.id; spec = json })
            | Error _ -> ());
            (match t.meters with Some m -> Metrics.inc m.m_submitted | None -> ());
            set_queue_gauge t;
            dispatch t)
  end

let accept_result t peer (result : Job.result) =
  let id = result.Job.id in
  match Hashtbl.find_opt t.jobs id with
  | None ->
      if Hashtbl.mem t.done_results id then
        Log.debug (fun m -> m "duplicate result for %s; dropped" id)
      else Log.warn (fun m -> m "result for unknown job %s; dropped" id)
  | Some j ->
      (* A finished job lives on only as its result in [done_results]. *)
      Hashtbl.remove t.jobs id;
      (match peer.role with
      | Worker_role name -> (
          match Hashtbl.find_opt t.workers name with
          | Some w -> Hashtbl.remove w.w_jobs id
          | None -> ())
      | _ -> ());
      let status = Job.status_string result.Job.outcome in
      (* Journal the result body too: after a failover, the promoted
         standby answers an idempotent resubmission of this job from
         the replicated record — the result outlives this process. *)
      let rjson = Job.result_to_json result in
      Hashtbl.replace t.done_results id rjson;
      journal t (Journal.Completed { job = id; status; result = Some rjson });
      (match t.meters with Some m -> Metrics.inc m.m_completed | None -> ());
      (match j.j_assign with
      | Some (actx, t0a) ->
          Trace.span t.trace ~job:id ~ctx:actx ~name:"assign"
            ~dur:(Timer.now () -. t0a)
            (("status", Json.Str status)
            ::
            (match j.j_worker with
            | Some w -> [ ("worker", Json.Str w) ]
            | None -> []))
      | None -> ());
      (* A coordinator-minted context means no client owns the trace:
         emit the enclosing root span here. *)
      (match j.j_ctx with
      | Some (base, true) ->
          Trace.span t.trace ~job:id ~ctx:base ~name:"job"
            ~dur:(Timer.now () -. j.j_t0)
            [ ("status", Json.Str status) ]
      | _ -> ());
      (match Option.bind j.j_client (Hashtbl.find_opt t.conns) with
      | Some client -> ignore (safe_send client (Proto.Result { result }))
      | None -> ());
      set_worker_gauges t;
      dispatch t

let drop_peer t peer ~reason =
  match peer.role with
  | Worker_role name -> (
      match Hashtbl.find_opt t.workers name with
      | Some w -> worker_dead t w ~reason
      | None ->
          Hashtbl.remove t.conns peer.pid;
          Transport.close peer.conn)
  | Standby_role { s_name; _ } ->
      Log.info (fun m -> m "standby %s detached (%s)" s_name reason);
      Trace.emit t.trace ~kind:"standby_detached"
        [ ("standby", Json.Str s_name); ("reason", Json.Str reason) ];
      Hashtbl.remove t.conns peer.pid;
      Transport.close peer.conn;
      set_rep_gauges t
  | Pending | Client_role ->
      (* A gone client orphans its jobs: they still run to completion
         and are journaled, the results just have nowhere to go. *)
      Hashtbl.iter
        (fun _ j -> if j.j_client = Some peer.pid then j.j_client <- None)
        t.jobs;
      Hashtbl.remove t.conns peer.pid;
      Transport.close peer.conn

let handle_msg t peer msg =
  (* Any frame from a registered worker proves it alive: a worker kept
     busy by a stream of submissions never idles long enough to send a
     Heartbeat, and must not be declared dead for it. *)
  (match peer.role with
  | Worker_role name -> (
      match Hashtbl.find_opt t.workers name with
      | Some w ->
          w.w_last_seen <- Unix.gettimeofday ();
          w.w_missed <- 0
      | None -> ())
  | Pending | Client_role | Standby_role _ -> ());
  match msg with
  | Proto.Hello { worker; capacity; fence } ->
      if fence > t.epoch then begin
        (* The worker was welcomed by a higher reign: we are a deposed
           primary that does not know it yet. Announce our (stale)
           epoch honestly and register nothing — the worker's fence
           check rejects the Welcome and it moves on to the live
           primary. Assigning work here would be split-brain. *)
        (match t.meters with Some m -> Metrics.inc m.m_deposed | None -> ());
        Log.warn (fun m ->
            m
              "worker %s carries fence epoch %d > our epoch %d: a newer \
               primary exists; refusing to register it"
              worker fence t.epoch);
        Trace.emit t.trace ~kind:"deposed_hello"
          [
            ("worker", Json.Str worker);
            ("fence", Json.Num (float_of_int fence));
            ("epoch", Json.Num (float_of_int t.epoch));
          ];
        ignore
          (safe_send peer
             (Proto.Welcome
                {
                  coordinator = t.cfg.name;
                  heartbeat_every = t.cfg.heartbeat_every;
                  epoch = t.epoch;
                }))
      end
      else if Hashtbl.mem t.workers worker then begin
        ignore
          (safe_send peer
             (Proto.Goodbye
                { reason = Printf.sprintf "worker name %S taken" worker }));
        drop_peer t peer ~reason:"duplicate name"
      end
      else begin
        peer.role <- Worker_role worker;
        let w =
          {
            w_name = worker;
            w_peer = peer;
            w_capacity = capacity;
            w_jobs = Hashtbl.create 8;
            w_last_seen = Unix.gettimeofday ();
            w_missed = 0;
            w_gauge =
              Option.map
                (fun m ->
                  Metrics.gauge m.m_reg
                    ~labels:[ ("worker", worker) ]
                    ~help:"jobs currently assigned to this worker"
                    "psdp_dist_worker_inflight")
                t.meters;
          }
        in
        Hashtbl.replace t.workers worker w;
        Trace.emit t.trace ~kind:"worker_joined"
          [
            ("worker", Json.Str worker);
            ("capacity", Json.Num (float_of_int capacity));
          ];
        Log.info (fun m -> m "worker %s joined (capacity %d)" worker capacity);
        ignore
          (safe_send peer
             (Proto.Welcome
                {
                  coordinator = t.cfg.name;
                  heartbeat_every = t.cfg.heartbeat_every;
                  epoch = t.epoch;
                }));
        set_worker_gauges t;
        dispatch t
      end
  | Proto.Submit { spec; epoch = _ } -> accept_job t peer spec
  | Proto.Result { result } -> accept_result t peer result
  | Proto.Heartbeat { worker; _ } -> (
      match peer.role with
      | Standby_role _ -> ignore (safe_send peer Proto.Heartbeat_ack)
      | _ -> (
          match Hashtbl.find_opt t.workers worker with
          | Some w -> ignore (safe_send w.w_peer Proto.Heartbeat_ack)
          | None ->
              (* A heartbeat from a worker we already declared dead: tell
                 it to go away so it can reconnect fresh. *)
              ignore
                (safe_send peer (Proto.Goodbye { reason = "unknown worker" }))))
  | Proto.Goodbye { reason } -> drop_peer t peer ~reason
  | Proto.Shutdown ->
      Log.info (fun m -> m "shutdown requested");
      t.running <- false
  | Proto.Rep_hello { standby } -> (
      match t.store with
      | None ->
          ignore
            (safe_send peer
               (Proto.Error_msg
                  {
                    message =
                      "replication requires a journaling primary \
                       (--checkpoint-dir)";
                  }));
          drop_peer t peer ~reason:"standby without a store"
      | Some store ->
          peer.role <- Standby_role { s_name = standby; s_acked = 0 };
          Log.info (fun m -> m "standby %s attached; sending snapshot" standby);
          Trace.emit t.trace ~kind:"standby_attached"
            [ ("standby", Json.Str standby) ];
          let data = Store.tail store ~from:0 in
          if
            not
              (safe_send peer (Proto.Rep_snapshot { epoch = t.epoch; data }))
          then drop_peer t peer ~reason:"snapshot send failed"
          else set_rep_gauges t)
  | Proto.Rep_ack { offset } -> (
      match peer.role with
      | Standby_role s ->
          s.s_acked <- max s.s_acked offset;
          set_rep_gauges t
      | _ -> drop_peer t peer ~reason:"unexpected message")
  | Proto.Takeover ->
      (* We are already primary: answer idempotently with our reign so
         an operator's [--takeover] against the wrong address reports
         the live epoch instead of hanging. *)
      ignore
        (safe_send peer
           (Proto.Welcome
              {
                coordinator = t.cfg.name;
                heartbeat_every = t.cfg.heartbeat_every;
                epoch = t.epoch;
              }))
  | Proto.Welcome _ | Proto.Heartbeat_ack | Proto.Error_msg _
  | Proto.Rep_snapshot _ | Proto.Rep_append _ ->
      drop_peer t peer ~reason:"unexpected message"

(* ------------------------------------------------------------------ *)
(* Heartbeat sweep *)

let sweep t =
  let now = Unix.gettimeofday () in
  let dead = ref [] in
  Hashtbl.iter
    (fun _ w ->
      let silent = now -. w.w_last_seen in
      let periods = int_of_float (silent /. t.cfg.heartbeat_every) in
      if periods > w.w_missed then begin
        (match t.meters with
        | Some m -> Metrics.add m.m_hb_misses (periods - w.w_missed)
        | None -> ());
        w.w_missed <- periods
      end;
      if silent > t.cfg.heartbeat_grace then dead := w :: !dead)
    t.workers;
  List.iter (fun w -> worker_dead t w ~reason:"heartbeat timeout") !dead

(* ------------------------------------------------------------------ *)
(* Recovery *)

let recover t =
  match t.store with
  | None -> ()
  | Some store ->
      List.iter
        (fun (job, rjson) -> Hashtbl.replace t.done_results job rjson)
        (Store.completed_results store);
      List.iter
        (fun (p : Store.pending) ->
          match Job.spec_of_json p.Store.spec with
          | Error msg ->
              Log.warn (fun m ->
                  m "recovery: cannot decode spec for %s: %s" p.Store.job msg)
          | Ok spec ->
              let spec =
                if spec.Job.id = "" then { spec with Job.id = p.Store.job }
                else spec
              in
              if not (Hashtbl.mem t.jobs spec.Job.id) then begin
                let now = Timer.now () in
                Hashtbl.replace t.jobs spec.Job.id
                  {
                    j_spec = spec;
                    j_worker = None;
                    j_client = None;
                    j_ctx =
                      (match spec.Job.trace with
                      | Some parent -> Some (parent, false)
                      | None ->
                          if Trace.enabled t.trace then
                            Some (Trace_context.mint (), true)
                          else None);
                    j_t0 = now;
                    j_wait_start = now;
                    j_assign = None;
                    j_rerouted = false;
                  };
                Queue.push spec.Job.id t.queue;
                Trace.emit t.trace ~job:spec.Job.id ~kind:"job_recovered"
                  (match p.Store.assigned with
                  | Some w -> [ ("last_worker", Json.Str w) ]
                  | None -> [])
              end)
        (Store.pending store);
      if not (Queue.is_empty t.queue) then
        Log.info (fun m ->
            m "recovered %d unfinished job(s) from the journal"
              (Queue.length t.queue));
      set_queue_gauge t

(* ------------------------------------------------------------------ *)
(* Main loop *)

let serve ?(config = default_config) ?store ?metrics ?(trace = Trace.null)
    ?on_ready ?(takeover = false) ~lfd ~listen () =
  let meters = Option.map make_meters metrics in
  (* Epoch discipline: the journal's highest [Epoch] record is the last
     reign that owned this WAL. A plain (re)start keeps it — same
     primary, same reign, so a restarted process is *not* mistaken for
     a failover. A promotion (takeover / standby failover) bumps it by
     one and journals the bump, which is exactly what fences the old
     primary out if it ever comes back. First-ever start is reign 1. *)
  let stored = match store with Some s -> Store.epoch s | None -> 0 in
  let epoch = if takeover then stored + 1 else max stored 1 in
  let t =
    {
      cfg = config;
      store;
      meters;
      trace;
      conns = Hashtbl.create 16;
      workers = Hashtbl.create 8;
      jobs = Hashtbl.create 64;
      queue = Queue.create ();
      digests = Hashtbl.create 16;
      done_results = Hashtbl.create 64;
      epoch;
      doomed = [];
      next_pid = 0;
      running = true;
    }
  in
  if epoch > stored then journal t (Journal.Epoch { epoch });
  (match meters with
  | Some m ->
      Metrics.set m.m_epoch (float_of_int epoch);
      if takeover then Metrics.inc m.m_failovers
  | None -> ());
  Trace.emit t.trace ~kind:"coordinator_started"
    [
      ("listen", Json.Str (Transport.addr_to_string listen));
      ("epoch", Json.Num (float_of_int epoch));
      ("takeover", Json.Bool takeover);
    ];
  Log.info (fun m ->
      m "serving %s (epoch %d%s)"
        (Transport.addr_to_string listen)
        epoch
        (if takeover then ", promoted by takeover" else ""));
  recover t;
  (* Replication stream: every fsynced append is forwarded, byte-exact,
     to every attached standby. The callback runs under the store lock
     in the select-loop thread; failed sends only doom the standby (it
     re-syncs from a snapshot when it reconnects). *)
  (match store with
  | Some s ->
      Store.subscribe s (fun ~offset ~data ->
          Hashtbl.iter
            (fun _ p ->
              match p.role with
              | Standby_role _ ->
                  if
                    safe_send p
                      (Proto.Rep_append { epoch = t.epoch; offset; data })
                  then begin
                    match t.meters with
                    | Some m ->
                        Metrics.inc m.m_rep_records;
                        Metrics.add m.m_rep_bytes (String.length data)
                    | None -> ()
                  end
                  else t.doomed <- p.pid :: t.doomed
              | _ -> ())
            t.conns)
  | None -> ());
  (match on_ready with Some f -> f () | None -> ());
  let count_rx n =
    match meters with Some m -> Metrics.add m.m_rx_bytes n | None -> ()
  in
  let count_tx n =
    match meters with Some m -> Metrics.add m.m_tx_bytes n | None -> ()
  in
  while t.running do
    (* Peers doomed inside a store-subscription callback (where dropping
       them would have mutated the table being iterated) die here. *)
    (match t.doomed with
    | [] -> ()
    | pids ->
        t.doomed <- [];
        List.iter
          (fun pid ->
            match Hashtbl.find_opt t.conns pid with
            | Some p -> drop_peer t p ~reason:"replication send failed"
            | None -> ())
          pids);
    let fds =
      lfd
      :: Hashtbl.fold (fun _ p acc -> Transport.fd p.conn :: acc) t.conns []
    in
    let tick = config.heartbeat_every /. 2.0 in
    let readable, _, _ =
      try Unix.select fds [] [] tick
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        if fd = lfd then begin
          match Unix.accept lfd with
          | cfd, _ ->
              Unix.set_nonblock cfd;
              let conn =
                Transport.of_fd ~max_payload:config.max_payload ~count_rx
                  ~count_tx cfd
              in
              let pid = t.next_pid in
              t.next_pid <- pid + 1;
              Hashtbl.replace t.conns pid { pid; conn; role = Pending }
          | exception Unix.Unix_error _ -> ()
        end
        else
          let peer =
            Hashtbl.fold
              (fun _ p acc ->
                if Transport.fd p.conn = fd then Some p else acc)
              t.conns None
          in
          match peer with
          | None -> ()
          | Some peer -> (
              match Transport.fill peer.conn with
              | false -> drop_peer t peer ~reason:"connection closed"
              | true -> (
                  try
                    let continue = ref true in
                    while !continue do
                      match Transport.pop peer.conn with
                      | Some msg ->
                          handle_msg t peer msg;
                          (* the peer may have been dropped *)
                          if not (Hashtbl.mem t.conns peer.pid) then
                            continue := false
                      | None -> continue := false
                    done
                  with Transport.Protocol_failure why ->
                    Log.warn (fun m ->
                        m "protocol failure from peer %d: %s" peer.pid why);
                    Trace.emit t.trace ~kind:"protocol_failure"
                      [ ("why", Json.Str why) ];
                    drop_peer t peer ~reason:("protocol: " ^ why))))
      readable;
    sweep t
  done;
  (* Graceful stop: tell everyone, close everything. A standby receiving
     this Goodbye exits without promoting — an operator shutdown is not
     a primary death. *)
  Hashtbl.iter
    (fun _ p ->
      ignore (safe_send p (Proto.Goodbye { reason = "coordinator stopped" }));
      Transport.close p.conn)
    t.conns;
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  (match listen with
  | Transport.Unix_sock path -> (
      try Sys.remove path with Sys_error _ -> ())
  | Transport.Tcp _ -> ());
  Trace.emit t.trace ~kind:"coordinator_stopped"
    [ ("unfinished", Json.Num (float_of_int (Queue.length t.queue))) ];
  Ok ()

let run ?config ?store ?metrics ?trace ?on_ready ?takeover ~listen () =
  match Transport.listen listen with
  | Error e -> Error e
  | Ok lfd ->
      serve ?config ?store ?metrics ?trace ?on_ready ?takeover ~lfd ~listen ()
