open Psdp_prelude
open Psdp_engine
module Trace_context = Psdp_obs.Trace_context
module Retry = Psdp_fault.Retry

type failure =
  | Unreachable of string
  | Refused of string
  | Timed_out of string

let failure_to_string = function
  | Unreachable m -> "unreachable: " ^ m
  | Refused m -> m
  | Timed_out m -> m

let default_retry = Retry.make ~base:0.05 ~cap:1.0 ~max_attempts:30 ()

type t = {
  addrs : Transport.addr list;
  retry : Retry.policy;
  max_payload : int option;
  trace : Trace.sink;
  rng : Rng.t;
  mutable conn : Transport.conn option;
  (* job id -> spec as shipped: everything submitted whose result has
     not landed yet, replayed verbatim after every reconnect (the job
     id is the idempotency nonce — the coordinator dedupes). *)
  outstanding : (string, Job.spec) Hashtbl.t;
  received : (string, unit) Hashtbl.t;
  (* job id -> (request span context, submit stamp); closed on result *)
  inflight : (string, Trace_context.t * float) Hashtbl.t;
}

let mark_down t =
  match t.conn with
  | None -> ()
  | Some c ->
      Transport.close c;
      t.conn <- None

(* Dial the address list in order until someone accepts, sleeping a
   decorrelated-jitter backoff between full unreachable cycles, then
   replay every outstanding submission over the fresh link. *)
let ensure_link t =
  match t.conn with
  | Some c -> Ok c
  | None ->
      let failures = ref 0 in
      let prev = ref 0.0 in
      let result = ref None in
      while !result = None do
        let conn =
          List.find_map
            (fun addr ->
              match
                Transport.connect ?max_payload:t.max_payload addr
              with
              | Ok c -> Some c
              | Error _ -> None)
            t.addrs
        in
        (match conn with
        | Some conn -> (
            match
              Hashtbl.iter
                (fun _ spec ->
                  Transport.send conn (Proto.Submit { spec; epoch = 0 }))
                t.outstanding
            with
            | () ->
                t.conn <- Some conn;
                if Hashtbl.length t.outstanding > 0 then
                  Trace.emit t.trace ~kind:"client_resubmitted"
                    [
                      ( "jobs",
                        Json.Num
                          (float_of_int (Hashtbl.length t.outstanding)) );
                    ];
                result := Some (Ok conn)
            | exception (Transport.Closed | Unix.Unix_error _) ->
                Transport.close conn)
        | None -> ());
        if !result = None then begin
          incr failures;
          if !failures >= t.retry.Retry.max_attempts then
            result :=
              Some
                (Error
                   (Unreachable
                      (Printf.sprintf
                         "no coordinator reachable after %d attempt \
                          cycle(s) over %d address(es)"
                         !failures (List.length t.addrs))))
          else begin
            let delay = Retry.backoff t.retry ~rng:t.rng ~prev:!prev in
            prev := delay;
            Unix.sleepf delay
          end
        end
      done;
      match !result with
      | Some r -> r
      | None -> Error (Unreachable "unreachable")

let connect ?max_payload ?(trace = Trace.null) ?(retry = default_retry) addrs =
  (match addrs with
  | [] -> invalid_arg "Client.connect: empty coordinator address list"
  | _ -> ());
  let t =
    {
      addrs;
      retry;
      max_payload;
      trace;
      rng = Rng.create (Hashtbl.hash ("client", Unix.getpid ()));
      conn = None;
      outstanding = Hashtbl.create 16;
      received = Hashtbl.create 16;
      inflight = Hashtbl.create 16;
    }
  in
  match ensure_link t with Ok _ -> Ok t | Error f -> Error f

let submit t (spec : Job.spec) =
  if spec.Job.id = "" then Error (Refused "submit: spec needs a non-empty id")
  else
    match spec.Job.source with
    | Job.Inline _ ->
        Error (Refused "submit: inline instances cannot travel the wire")
    | Job.File _ -> (
        (* The client owns the trace root: each submission opens a
           "request" span whose context travels in the spec, so the
           coordinator's and worker's spans assemble under it. *)
        let spec =
          if Trace.enabled t.trace then begin
            let base =
              match spec.Job.trace with
              | Some c -> c
              | None -> Trace_context.mint ()
            in
            Hashtbl.replace t.inflight spec.Job.id (base, Timer.now ());
            { spec with Job.trace = Some base }
          end
          else spec
        in
        Hashtbl.replace t.outstanding spec.Job.id spec;
        match ensure_link t with
        | Error f -> Error f
        | Ok conn -> (
            try
              Transport.send conn (Proto.Submit { spec; epoch = 0 });
              Ok ()
            with Transport.Closed | Unix.Unix_error _ -> (
              (* The link died under us: reconnect; the fresh link's
                 outstanding replay carries this spec too. *)
              mark_down t;
              match ensure_link t with
              | Ok _ -> Ok ()
              | Error f -> Error f)))

let record_result t (result : Job.result) =
  let id = result.Job.id in
  match Hashtbl.find_opt t.inflight id with
  | None -> ()
  | Some (ctx, t0) ->
      Hashtbl.remove t.inflight id;
      Trace.span t.trace ~job:id ~ctx ~name:"request"
        ~dur:(Timer.now () -. t0)
        [ ("status", Json.Str (Job.status_string result.Job.outcome)) ]

let collect ?timeout t ~expected =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
  let results = ref [] in
  let count = ref 0 in
  let err = ref None in
  (try
     while !err = None && !count < expected do
       match ensure_link t with
       | Error f -> err := Some f
       | Ok conn -> (
           match Transport.pop conn with
           | Some (Proto.Result { result }) ->
               (* Reconnect replays can produce duplicate deliveries;
                  the first one wins, the rest are dropped here. *)
               if not (Hashtbl.mem t.received result.Job.id) then begin
                 Hashtbl.replace t.received result.Job.id ();
                 Hashtbl.remove t.outstanding result.Job.id;
                 record_result t result;
                 results := result :: !results;
                 incr count
               end
           | Some (Proto.Error_msg { message }) -> err := Some (Refused message)
           | Some (Proto.Goodbye { reason }) ->
               (* A standby telling us where to go, a deposed primary
                  fencing itself off, a dying coordinator: all the
                  same cure — drop the link and let [ensure_link]
                  find whoever now reigns. *)
               Trace.emit t.trace ~kind:"client_redirected"
                 [ ("reason", Json.Str reason) ];
               mark_down t
           | Some _ -> ()
           | None -> (
               let wait =
                 match deadline with
                 | None -> 60.0
                 | Some d ->
                     let left = d -. Unix.gettimeofday () in
                     if left <= 0.0 then raise Exit else left
               in
               let readable, _, _ =
                 try Unix.select [ Transport.fd conn ] [] [] wait
                 with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
               in
               (if readable <> [] then
                  match Transport.fill conn with
                  | true -> ()
                  | false -> mark_down t
                  | exception Transport.Protocol_failure _ -> mark_down t);
               match deadline with
               | Some d when Unix.gettimeofday () >= d && !count < expected ->
                   raise Exit
               | _ -> ())
           | exception Transport.Protocol_failure _ -> mark_down t)
     done
   with Exit ->
     err :=
       Some
         (Timed_out
            (Printf.sprintf "timed out with %d of %d results" !count expected)));
  match !err with None -> Ok (List.rev !results) | Some e -> Error e

let shutdown_cluster t =
  match ensure_link t with
  | Error _ -> ()
  | Ok conn -> (
      try Transport.send conn Proto.Shutdown
      with Transport.Closed | Unix.Unix_error _ -> ())

let close t = mark_down t
