open Psdp_prelude
open Psdp_engine
module Metrics = Psdp_obs.Metrics
module Failpoint = Psdp_fault.Failpoint
module Retry = Psdp_fault.Retry

let log_src = Logs.Src.create "psdp.dist.worker" ~doc:"distributed worker"

module Log = (val Logs.src_log log_src : Logs.LOG)

let default_retry = Retry.make ~base:0.2 ~cap:3.0 ~max_attempts:1_000_000 ()

(* One registered session against one coordinator address ends in one
   of these; the reconnect loop decides what survives it. *)
type session_end =
  | Finished of string  (* orderly dismissal: stop for good *)
  | Link_lost of string  (* reconnect and re-register *)

let run ?metrics ?max_payload ?(trace = Trace.null) ?(retry = default_retry)
    ~connect ~name ~capacity ~make_engine () =
  (match connect with
  | [] -> invalid_arg "Worker.run: empty coordinator address list"
  | _ -> ());
  let count dir =
    match metrics with
    | None -> ignore
    | Some reg ->
        let c =
          Metrics.counter reg
            ~labels:[ ("dir", dir) ]
            ~help:"raw bytes crossing the worker's coordinator link"
            "psdp_dist_frame_bytes_total"
        in
        fun n -> Metrics.add c n
  in
  let reconnects =
    Option.map
      (fun reg ->
        Metrics.counter reg
          ~help:"times this worker re-registered after losing its link"
          "psdp_ha_worker_reconnects_total")
      metrics
  in
  let fence_meter =
    Option.map
      (fun reg ->
        Metrics.counter reg
          ~help:"coordinator frames rejected for carrying a stale epoch"
          "psdp_ha_fence_rejections_total")
      metrics
  in
  (* Results flow through an outbox instead of straight onto the
     socket: runner domains enqueue, the session loop delivers, and
     whatever is undelivered when a link dies ships on the next one —
     a result computed is a result delivered, eventually. [recent]
     remembers what we already solved so a coordinator that re-assigns
     a job it saw us die with (it did not) gets the answer replayed,
     not recomputed. *)
  let lock = Mutex.create () in
  let outbox = Queue.create () in
  let recent = Hashtbl.create 64 in
  let recent_order = Queue.create () in
  let notify_r, notify_w = Unix.pipe () in
  Unix.set_nonblock notify_r;
  let inflight = Atomic.make 0 in
  let on_complete (result : Job.result) =
    Atomic.decr inflight;
    Mutex.lock lock;
    Queue.push result outbox;
    if not (Hashtbl.mem recent result.Job.id) then begin
      Hashtbl.replace recent result.Job.id result;
      Queue.push result.Job.id recent_order;
      if Queue.length recent_order > 1024 then
        Hashtbl.remove recent (Queue.pop recent_order)
    end
    else Hashtbl.replace recent result.Job.id result;
    Mutex.unlock lock;
    try ignore (Unix.write notify_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()
  in
  let engine = make_engine ~on_complete in
  let fence = ref 0 in
  let rng = Rng.create (Hashtbl.hash (name, Unix.getpid ())) in
  let drain_notify () =
    let buf = Bytes.create 64 in
    let rec go () =
      match Unix.read notify_r buf 0 64 with
      | _ -> go ()
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ()
      | exception Unix.Unix_error _ -> ()
    in
    go ()
  in
  let reject_stale conn ~what ~epoch =
    (match fence_meter with Some c -> Metrics.inc c | None -> ());
    Trace.emit trace ~kind:"fence_rejected"
      [
        ("what", Json.Str what);
        ("epoch", Json.Num (float_of_int epoch));
        ("fence", Json.Num (float_of_int !fence));
      ];
    Log.warn (fun m ->
        m "rejected %s with epoch %d below our fence %d: stale coordinator"
          what epoch !fence);
    (try
       Transport.send conn
         (Proto.Goodbye
            {
              reason =
                Printf.sprintf "fenced: your epoch %d < my fence %d" epoch
                  !fence;
            })
     with Transport.Closed | Unix.Unix_error _ -> ())
  in
  (* Deliver everything queued in the outbox over [conn]; false means
     the link died mid-flush (undelivered results stay queued). *)
  let flush_outbox conn =
    let ok = ref true in
    let next () =
      Mutex.lock lock;
      let r = if Queue.is_empty outbox then None else Some (Queue.peek outbox) in
      Mutex.unlock lock;
      r
    in
    let rec go () =
      match next () with
      | None -> ()
      | Some result -> (
          match Transport.send conn (Proto.Result { result }) with
          | () ->
              Mutex.lock lock;
              ignore (Queue.pop outbox);
              Mutex.unlock lock;
              go ()
          | exception (Transport.Closed | Unix.Unix_error _) -> ok := false)
    in
    go ();
    !ok
  in
  let this_registered = ref false in
  let session addr =
    this_registered := false;
    match
      Transport.connect ?max_payload ~count_rx:(count "rx")
        ~count_tx:(count "tx") addr
    with
    | Error e -> Link_lost e
    | Ok conn -> (
        let finish v =
          Transport.close conn;
          v
        in
        match
          Transport.send conn
            (Proto.Hello { worker = name; capacity; fence = !fence });
          Transport.recv conn
        with
        | exception (Transport.Closed | Unix.Unix_error _) ->
            finish (Link_lost "coordinator closed the connection during handshake")
        | exception Transport.Protocol_failure why ->
            finish (Link_lost ("handshake: " ^ why))
        | Proto.Goodbye { reason } ->
            (* A standby refusing service is a routing hint (try the
               next address), not a verdict on this worker; anything
               else — name taken, policy — is final. *)
            if
              String.length reason >= 7 && String.sub reason 0 7 = "standby"
            then finish (Link_lost ("standby refused: " ^ reason))
            else finish (Finished ("coordinator refused us: " ^ reason))
        | Proto.Welcome { epoch; _ } when epoch < !fence ->
            reject_stale conn ~what:"welcome" ~epoch;
            finish (Link_lost "stale coordinator")
        | Proto.Welcome { coordinator; heartbeat_every; epoch } -> (
            this_registered := true;
            fence := max !fence epoch;
            Log.info (fun m ->
                m "registered with %s (heartbeat every %gs, epoch %d)"
                  coordinator heartbeat_every epoch);
            Trace.emit trace ~kind:"worker_registered"
              [
                ("coordinator", Json.Str coordinator);
                ("epoch", Json.Num (float_of_int epoch));
              ];
            let stop = ref None in
            let handle_buffered () =
              try
                let continue = ref true in
                while !continue do
                  match Transport.pop conn with
                  | None -> continue := false
                  | Some (Proto.Submit { spec; epoch }) ->
                      Failpoint.hit ~arg:spec.Job.id "dist.worker.tick";
                      if epoch < !fence then begin
                        reject_stale conn ~what:"submit" ~epoch;
                        stop := Some (Link_lost "stale coordinator");
                        continue := false
                      end
                      else begin
                        fence := max !fence epoch;
                        let replay =
                          Mutex.lock lock;
                          let r = Hashtbl.find_opt recent spec.Job.id in
                          (match r with
                          | Some result -> Queue.push result outbox
                          | None -> ());
                          Mutex.unlock lock;
                          r <> None
                        in
                        if replay then begin
                          Trace.emit trace ~job:spec.Job.id
                            ~kind:"result_replayed" [];
                          if not (flush_outbox conn) then begin
                            stop := Some (Link_lost "connection lost");
                            continue := false
                          end
                        end
                        else begin
                          Atomic.incr inflight;
                          ignore (Engine.submit engine spec)
                        end
                      end
                  | Some Proto.Heartbeat_ack -> ()
                  | Some (Proto.Goodbye { reason }) ->
                      (* "coordinator stopped" is the cluster winding
                         down; anything else (e.g. "unknown worker"
                         after we were declared dead) means: go away
                         and come back fresh. *)
                      if reason = "coordinator stopped" then
                        stop := Some (Finished ("dismissed: " ^ reason))
                      else stop := Some (Link_lost ("dismissed: " ^ reason));
                      continue := false
                  | Some Proto.Shutdown ->
                      stop := Some (Finished "shutdown");
                      continue := false
                  | Some other ->
                      Log.warn (fun m ->
                          m "unexpected %s from coordinator; ignored"
                            (Proto.describe other))
                done
              with Transport.Protocol_failure why ->
                stop := Some (Link_lost ("protocol failure: " ^ why))
            in
            if not (flush_outbox conn) then stop := Some (Link_lost "connection lost");
            while !stop = None do
              Failpoint.hit ~arg:name "dist.worker.tick";
              (* Frames already in the buffer first: the read that
                 brought the Welcome (or an earlier batch) may hold a
                 Submit, and select does not wake for buffered bytes. *)
              handle_buffered ();
              if !stop = None then begin
                let readable, _, _ =
                  try
                    Unix.select
                      [ Transport.fd conn; notify_r ]
                      [] [] heartbeat_every
                  with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
                in
                if List.mem notify_r readable then drain_notify ();
                if not (flush_outbox conn) then
                  stop := Some (Link_lost "connection lost")
                else if readable = [] then begin
                  try
                    Transport.send conn
                      (Proto.Heartbeat
                         { worker = name; inflight = Atomic.get inflight })
                  with Transport.Closed | Unix.Unix_error _ ->
                    stop := Some (Link_lost "connection lost")
                end
                else if
                  List.mem (Transport.fd conn) readable
                  && not (Transport.fill conn)
                then stop := Some (Link_lost "connection closed")
              end
            done;
            match !stop with
            | Some v -> finish v
            | None -> finish (Link_lost "unreachable"))
        | other ->
            finish
              (Link_lost
                 (Printf.sprintf "handshake: expected welcome, got %s"
                    (Proto.describe other))))
  in
  Fun.protect
    ~finally:(fun () ->
      (* Drain first: jobs already accepted finish; their results stay
         in the outbox (journaled coordinator-side only if they made it
         out before the close). *)
      Engine.shutdown engine;
      (try Unix.close notify_r with Unix.Unix_error _ -> ());
      try Unix.close notify_w with Unix.Unix_error _ -> ())
    (fun () ->
      (* Cycle the ordered address list; one full cycle with no
         registration costs one decorrelated-jitter backoff sleep.
         Cycles that do register reset the failure count — a worker
         bounced between failovers retries forever. *)
      let failures = ref 0 in
      let prev = ref 0.0 in
      let result = ref None in
      while !result = None do
        let registered = ref false in
        List.iter
          (fun addr ->
            if !result = None then
              match session addr with
              | Finished why ->
                  Log.info (fun m -> m "stopping (%s)" why);
                  result := Some (Ok ())
              | Link_lost why ->
                  Log.info (fun m ->
                      m "link to %s lost (%s)"
                        (Transport.addr_to_string addr)
                        why);
                  if !this_registered then begin
                    registered := true;
                    match reconnects with
                    | Some c -> Metrics.inc c
                    | None -> ()
                  end)
          connect;
        match !result with
        | Some _ -> ()
        | None ->
            if !registered then failures := 0 else incr failures;
            if !failures >= retry.Retry.max_attempts then
              result :=
                Some
                  (Error
                     (Printf.sprintf
                        "no coordinator reachable after %d attempt cycle(s)"
                        !failures))
            else begin
              let delay = Retry.backoff retry ~rng ~prev:!prev in
              prev := delay;
              Trace.emit trace ~kind:"worker_reconnect_backoff"
                [ ("delay", Json.Num delay) ];
              Unix.sleepf delay
            end
      done;
      match !result with Some r -> r | None -> Ok ())
