(* lib/dist — the distributed solve service.

   Covers: the binary frame codec (round-trip, incremental decode,
   every typed rejection path), the message layer, the framed transport
   over a socketpair (including peer-death and protocol-violation
   surfacing), the WAL [Assigned] record and the store's
   last-assignment tracking, engine-unique auto job ids, and the
   ISSUE's multi-process chaos acceptance test: coordinator + two
   worker processes on a Unix socket, one worker SIGKILLed mid-solve,
   every job completing with a verified certificate and the journal
   showing the reroute.

   The HA additions ride the same harness: partial-write hardening on
   the transport (tiny socket buffers + a signal storm), the `psdp
   submit` unreachable exit code, torn-tail replica recovery at every
   byte offset of the final record, and the failover acceptance test —
   SIGKILL the primary mid-batch, the warm standby promotes under a
   bumped fencing epoch, every job certifies exactly once, and a
   resurrected deposed primary is rejected by the workers.

   Liveness: a Submit that reaches a worker in the same read as its
   Welcome runs at once, not a heartbeat later, and a worker kept busy
   past the grace period by a stream of jobs is never declared dead. *)

open Psdp_prelude
open Psdp_engine
open Psdp_dist
module Journal = Psdp_store.Journal
module Store = Psdp_store.Store

let cli = "../bin/psdp_cli.exe"

let run_cli args =
  let null = "/dev/null" in
  Sys.command (Filename.quote_command cli ~stdout:null ~stderr:null args)

(* ------------------------------------------------------------------ *)
(* Frame codec *)

let sample_payloads =
  [
    "";
    "x";
    String.init 257 (fun i -> Char.chr (i * 31 mod 256));
    String.make 4096 '\xff';
    "{\"id\":\"j\",\"op\":\"solve\"}";
  ]

let test_frame_roundtrip () =
  List.iteri
    (fun i payload ->
      let tag = (i * 53) mod 256 in
      match Frame.decode_exact (Frame.encode ~tag payload) with
      | Ok (tag', payload') ->
          Alcotest.(check int) "tag" tag tag';
          Alcotest.(check string) "payload" payload payload'
      | Error e -> Alcotest.failf "payload %d: %s" i (Frame.error_to_string e))
    sample_payloads

let test_frame_incremental () =
  let frame = Frame.encode ~tag:7 "incremental decode" in
  let n = String.length frame in
  let buf = Bytes.of_string frame in
  for len = 0 to n - 1 do
    match Frame.decode buf ~off:0 ~len with
    | Ok Frame.Incomplete -> ()
    | Ok (Frame.Frame _) -> Alcotest.failf "decoded with %d of %d bytes" len n
    | Error e ->
        Alcotest.failf "prefix %d rejected: %s" len (Frame.error_to_string e)
  done;
  match Frame.decode buf ~off:0 ~len:n with
  | Ok (Frame.Frame { tag; payload; size }) ->
      Alcotest.(check int) "tag" 7 tag;
      Alcotest.(check string) "payload" "incremental decode" payload;
      Alcotest.(check int) "size" n size
  | Ok Frame.Incomplete -> Alcotest.fail "still incomplete at full length"
  | Error e -> Alcotest.fail (Frame.error_to_string e)

let test_frame_rejects () =
  let frame = Frame.encode ~tag:3 "hardening" in
  (* Wrong magic: definitive after one byte. *)
  (match
     Frame.decode (Bytes.of_string ("Q" ^ frame)) ~off:0 ~len:(String.length frame)
   with
  | Error Frame.Bad_magic -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  (* Wrong version. *)
  let wrong_v = Bytes.of_string frame in
  Bytes.set_uint8 wrong_v 4 9;
  (match Frame.decode wrong_v ~off:0 ~len:(Bytes.length wrong_v) with
  | Error (Frame.Bad_version 9) -> ()
  | _ -> Alcotest.fail "bad version accepted");
  (* Oversized declared length is refused from the 12-byte header alone,
     before any payload-sized allocation. *)
  let huge = Bytes.of_string frame in
  Bytes.set_uint8 huge 8 0x7f;
  (match Frame.decode ~max_payload:1024 huge ~off:0 ~len:Frame.header_size with
  | Error (Frame.Oversized { limit = 1024; _ }) -> ()
  | _ -> Alcotest.fail "oversized length accepted");
  (* Flipped payload byte: checksum catches it. *)
  let corrupt = Bytes.of_string frame in
  Bytes.set_uint8 corrupt 13 (Bytes.get_uint8 corrupt 13 lxor 1);
  (match Frame.decode corrupt ~off:0 ~len:(Bytes.length corrupt) with
  | Error Frame.Checksum_mismatch -> ()
  | _ -> Alcotest.fail "corrupt payload accepted");
  (* decode_exact flags truncation. *)
  match Frame.decode_exact (String.sub frame 0 (String.length frame - 1)) with
  | Error Frame.Truncated -> ()
  | _ -> Alcotest.fail "truncated frame accepted"

(* ------------------------------------------------------------------ *)
(* Proto *)

let all_msgs =
  [
    Proto.Hello { worker = "w-0"; capacity = 4; fence = 0 };
    Proto.Hello { worker = "w-0"; capacity = 4; fence = 3 };
    Proto.Welcome { coordinator = "c"; heartbeat_every = 0.5; epoch = 2 };
    Proto.Submit
      {
        spec =
          Job.solve_spec ~id:"j-1" ~eps:0.25 ~priority:3 ~timeout:9.5
            (Job.File "inst/a.inst");
        epoch = 0;
      };
    Proto.Submit
      {
        spec = Job.solve_spec ~id:"j-2" ~eps:0.25 (Job.File "inst/a.inst");
        epoch = 4;
      };
    Proto.Result
      {
        result =
          {
            Job.id = "j-1";
            outcome =
              Job.Solved
                {
                  value = 2.5;
                  upper_bound = 2.75;
                  decision_calls = 4;
                  iterations = 123;
                  cache = Job.Miss;
                  certified = true;
                };
            elapsed = 0.25;
          };
      };
    Proto.Heartbeat { worker = "w-0"; inflight = 2 };
    Proto.Heartbeat_ack;
    Proto.Goodbye { reason = "test" };
    Proto.Error_msg { message = "nope" };
    Proto.Shutdown;
    (* The replication stream: arbitrary journal bytes (newlines, NULs,
       high bytes) must survive the JSON payload via the hex codec. *)
    Proto.Rep_hello { standby = "s-1" };
    Proto.Rep_snapshot { epoch = 1; data = "{\"kind\":\"epoch\"}\n\x00\xff" };
    Proto.Rep_snapshot { epoch = 1; data = "" };
    Proto.Rep_append { epoch = 2; offset = 4096; data = "tail\nbytes\x01" };
    Proto.Rep_ack { offset = 123 };
    Proto.Takeover;
  ]

let test_proto_roundtrip () =
  List.iter
    (fun msg ->
      match Frame.decode_exact (Proto.encode msg) with
      | Error e ->
          Alcotest.failf "%s: %s" (Proto.describe msg) (Frame.error_to_string e)
      | Ok (tag, payload) -> (
          Alcotest.(check int) "tag" (Proto.tag msg) tag;
          match Proto.decode ~tag payload with
          | Ok msg' ->
              Alcotest.(check bool) (Proto.describe msg) true (msg = msg')
          | Error e -> Alcotest.failf "%s: %s" (Proto.describe msg) e))
    all_msgs

let test_proto_rejects () =
  (match Proto.decode ~tag:250 "{}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tag accepted");
  (match Proto.decode ~tag:1 "{\"worker\":\"w\",\"capacity\":0}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-positive capacity accepted");
  match Proto.decode ~tag:3 "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage submit accepted"

(* Trace contexts ride the Submit payload byte-for-byte; a corrupted
   context degrades to "no context" (the receiver mints a fresh root)
   rather than failing the frame — tracing must never cost a job. *)
let test_proto_trace_context () =
  let ctx =
    match
      Psdp_obs.Trace_context.of_parts
        ~trace_id:"0123456789abcdef0123456789abcdef"
        ~span_id:"00aa11bb22cc33dd" ~parent:"fedcba9876543210" ~sampled:true ()
    with
    | Some c -> c
    | None -> Alcotest.fail "of_parts rejected valid ids"
  in
  let spec =
    Job.solve_spec ~id:"j-t" ~eps:0.25 ~trace:ctx (Job.File "inst/a.inst")
  in
  (match
     Frame.decode_exact (Proto.encode (Proto.Submit { spec; epoch = 0 }))
   with
  | Error e -> Alcotest.fail (Frame.error_to_string e)
  | Ok (tag, payload) -> (
      match Proto.decode ~tag payload with
      | Ok (Proto.Submit { spec = spec'; _ }) -> (
          match spec'.Job.trace with
          | Some c ->
              Alcotest.(check string)
                "context survives the wire byte-for-byte"
                (Psdp_obs.Trace_context.to_string ctx)
                (Psdp_obs.Trace_context.to_string c)
          | None -> Alcotest.fail "context dropped in flight")
      | Ok other -> Alcotest.failf "decoded as %s" (Proto.describe other)
      | Error e -> Alcotest.fail e));
  (* Same spec with a mangled context string: still a valid Submit,
     with [trace = None]. *)
  let damaged =
    let s = Psdp_obs.Trace_context.to_string ctx in
    String.mapi (fun i c -> if i = 3 then 'x' else c) s
  in
  let payload =
    match Job.spec_to_json spec with
    | Ok (Json.Obj fields) ->
        Json.to_string
          (Json.Obj
             (List.map
                (fun (k, v) ->
                  if k = "trace" then (k, Json.Str damaged) else (k, v))
                fields))
    | Ok _ | Error _ -> Alcotest.fail "spec_to_json"
  in
  match Proto.decode ~tag:3 payload with
  | Ok (Proto.Submit { spec = spec'; _ }) ->
      Alcotest.(check bool)
        "damaged context degrades to None" true
        (spec'.Job.trace = None)
  | Ok other -> Alcotest.failf "decoded as %s" (Proto.describe other)
  | Error e -> Alcotest.failf "damaged context failed the spec: %s" e

(* ------------------------------------------------------------------ *)
(* Transport over a socketpair *)

let test_transport_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ca = Transport.of_fd a and cb = Transport.of_fd b in
  Transport.send ca (Proto.Hello { worker = "w"; capacity = 2; fence = 0 });
  Transport.send ca Proto.Heartbeat_ack;
  (match Transport.recv cb with
  | Proto.Hello { worker; capacity; _ } ->
      Alcotest.(check string) "worker" "w" worker;
      Alcotest.(check int) "capacity" 2 capacity
  | other -> Alcotest.failf "expected hello, got %s" (Proto.describe other));
  (match Transport.recv cb with
  | Proto.Heartbeat_ack -> ()
  | other -> Alcotest.failf "expected ack, got %s" (Proto.describe other));
  Transport.close ca;
  (match Transport.recv cb with
  | exception Transport.Closed -> ()
  | msg -> Alcotest.failf "expected Closed, got %s" (Proto.describe msg));
  Transport.close cb

let test_transport_protocol_failure () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let cb = Transport.of_fd b in
  ignore (Unix.write_substring a "garbage that is not a frame" 0 27);
  (match Transport.recv cb with
  | exception Transport.Protocol_failure _ -> ()
  | msg -> Alcotest.failf "expected failure, got %s" (Proto.describe msg));
  Unix.close a;
  Transport.close cb

(* Satellite: no frame may tear under partial writes. Tiny kernel
   buffers force the sender through many short writes; a 2 ms interval
   timer peppers it with SIGALRM so the write loop also sees EINTR
   mid-frame; a non-blocking sender descriptor exercises the
   EAGAIN/select path. The frame must still arrive byte-for-byte — a
   forked child echoes it back through the same gauntlet. *)
let test_transport_partial_writes () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096
   with Unix.Unix_error _ -> ());
  (try Unix.setsockopt_int b Unix.SO_RCVBUF 4096
   with Unix.Unix_error _ -> ());
  let data = String.init (512 * 1024) (fun i -> Char.chr (i land 0xff)) in
  let msg = Proto.Rep_append { epoch = 7; offset = 0; data } in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* Child: echo one message back, then vanish without running
         the parent's at_exit machinery. *)
      Unix.close a;
      let cb = Transport.of_fd b in
      let status =
        match Transport.recv cb with
        | m ->
            Transport.send cb m;
            0
        | exception _ -> 1
      in
      Unix._exit status
  | child ->
      Unix.close b;
      Unix.set_nonblock a;
      let ca = Transport.of_fd a in
      let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_value = 0.002; it_interval = 0.002 });
      let got =
        Fun.protect
          ~finally:(fun () ->
            ignore
              (Unix.setitimer Unix.ITIMER_REAL
                 { Unix.it_value = 0.0; it_interval = 0.0 });
            Sys.set_signal Sys.sigalrm old)
          (fun () ->
            Transport.send ca msg;
            (* Blocking reads for the echo: EAGAIN on the read side is
               covered by the coordinator's select loop, not here. *)
            Unix.clear_nonblock a;
            Transport.recv ca)
      in
      Transport.close ca;
      let _, st = Unix.waitpid [] child in
      Alcotest.(check bool) "child echoed cleanly" true (st = Unix.WEXITED 0);
      (match got with
      | Proto.Rep_append { epoch = 7; offset = 0; data = data' } ->
          Alcotest.(check bool)
            "payload intact byte-for-byte" true (String.equal data data')
      | other -> Alcotest.failf "expected the echo, got %s" (Proto.describe other))

(* ------------------------------------------------------------------ *)
(* WAL: Assigned records and last-assignment tracking *)

let test_journal_assigned () =
  let r = Journal.Assigned { job = "j-1"; worker = "w-2" } in
  (match Journal.of_line (Journal.to_line r) with
  | Ok r' -> Alcotest.(check bool) "round-trip" true (r = r')
  | Error e -> Alcotest.fail e);
  let tampered =
    String.concat "w-3"
      (String.split_on_char 'w' (Journal.to_line r) |> function
       | a :: _ :: rest -> [ a; String.concat "w" rest ]
       | l -> l)
  in
  match Journal.of_line tampered with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered assigned record accepted"

let with_temp_dir f =
  let dir = Filename.temp_file "psdp-dist-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

let test_store_tracks_assignment () =
  with_temp_dir (fun dir ->
      let store_dir = Filename.concat dir "store" in
      let spec = Json.Obj [ ("file", Json.Str "a.inst") ] in
      (match Store.open_store store_dir with
      | Error e -> Alcotest.fail e
      | Ok store ->
          Store.append store (Journal.Submitted { job = "j-1"; spec });
          Store.append store (Journal.Assigned { job = "j-1"; worker = "w-1" });
          Store.append store (Journal.Assigned { job = "j-1"; worker = "w-2" });
          Store.append store (Journal.Submitted { job = "j-2"; spec });
          Store.append store (Journal.Assigned { job = "j-2"; worker = "w-1" });
          Store.append store
            (Journal.Completed { job = "j-2"; status = "ok"; result = None });
          Store.close store);
      match Store.open_store store_dir with
      | Error e -> Alcotest.fail e
      | Ok store ->
          (match Store.pending store with
          | [ p ] ->
              Alcotest.(check string) "job" "j-1" p.Store.job;
              (* the *latest* assignment wins: a reroute supersedes *)
              Alcotest.(check (option string))
                "assigned" (Some "w-2") p.Store.assigned
          | ps -> Alcotest.failf "expected 1 pending, got %d" (List.length ps));
          Store.close store)

(* ------------------------------------------------------------------ *)
(* Satellite: torn-tail replica recovery at every byte offset.

   A replica journal killed mid-append can hold any prefix of its final
   record. For every such truncation point the recovery plan (the same
   open-and-replay path a promotion runs) must keep exactly the longest
   valid prefix, truncate the torn bytes off the disk, know the reign's
   epoch, and list the unfinished jobs for re-queue and the finished
   ones it can answer from the journal. *)

let test_torn_tail_every_offset () =
  with_temp_dir (fun dir ->
      let seed = Filename.concat dir "seed" in
      let spec = Json.Obj [ ("file", Json.Str "a.inst") ] in
      let result_json =
        Json.Obj [ ("id", Json.Str "j-done"); ("status", Json.Str "ok") ]
      in
      (match Store.open_store seed with
      | Error e -> Alcotest.fail e
      | Ok store ->
          Store.append store (Journal.Epoch { epoch = 3 });
          Store.append store ~epoch:3 (Journal.Submitted { job = "j-1"; spec });
          Store.append store ~epoch:3
            (Journal.Assigned { job = "j-1"; worker = "w-1" });
          Store.append store ~epoch:3
            (Journal.Submitted { job = "j-done"; spec });
          Store.append store ~epoch:3
            (Journal.Completed
               { job = "j-done"; status = "ok"; result = Some result_json });
          Store.append store ~epoch:3
            (Journal.Submitted { job = "j-tail"; spec });
          Store.close store);
      let journal = Filename.concat seed "journal.jsonl" in
      let bytes =
        let ic = open_in_bin journal in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let len = String.length bytes in
      (* Start of the final record: the byte after the second-to-last
         newline (every record is newline-terminated). *)
      let start = 1 + String.rindex_from bytes (len - 2) '\n' in
      Alcotest.(check bool) "final record is non-trivial" true (len - start > 2);
      let plan_at cut =
        let cutdir = Filename.concat dir (Printf.sprintf "cut-%d" cut) in
        Unix.mkdir cutdir 0o755;
        let oc = open_out_bin (Filename.concat cutdir "journal.jsonl") in
        output_string oc (String.sub bytes 0 cut);
        close_out oc;
        match Replicate.recover_plan ~dir:cutdir with
        | Ok plan -> (cutdir, plan)
        | Error e -> Alcotest.failf "recover_plan at cut %d: %s" cut e
      in
      (* Every truncation strictly inside the final record. *)
      for cut = start + 1 to len - 1 do
        let cutdir, plan = plan_at cut in
        Alcotest.(check int)
          (Printf.sprintf "cut %d: records in valid prefix" cut)
          5 plan.Replicate.valid_records;
        Alcotest.(check int)
          (Printf.sprintf "cut %d: valid prefix bytes" cut)
          start plan.Replicate.valid_prefix;
        Alcotest.(check bool)
          (Printf.sprintf "cut %d: tail reported torn" cut)
          true
          (plan.Replicate.torn <> None);
        Alcotest.(check int)
          (Printf.sprintf "cut %d: epoch survives" cut)
          3 plan.Replicate.epoch;
        Alcotest.(check (list string))
          (Printf.sprintf "cut %d: unfinished work re-queued" cut)
          [ "j-1" ]
          (List.sort compare plan.Replicate.requeue);
        Alcotest.(check (list string))
          (Printf.sprintf "cut %d: finished work answerable" cut)
          [ "j-done" ]
          (List.sort compare plan.Replicate.answerable);
        (* The torn bytes are really gone from disk — the journal now
           ends exactly at the valid prefix. *)
        Alcotest.(check int)
          (Printf.sprintf "cut %d: disk truncated to the prefix" cut)
          start
          (Unix.stat (Filename.concat cutdir "journal.jsonl")).Unix.st_size
      done;
      (* Clean boundary cases: a cut at the record boundary loses the
         final record with no torn tail; the intact journal keeps it. *)
      let _, plan = plan_at start in
      Alcotest.(check bool) "boundary cut is not torn" true
        (plan.Replicate.torn = None);
      Alcotest.(check int) "boundary cut keeps 5 records" 5
        plan.Replicate.valid_records;
      let _, plan = plan_at len in
      Alcotest.(check bool) "intact journal is not torn" true
        (plan.Replicate.torn = None);
      Alcotest.(check int) "intact journal keeps all 6" 6
        plan.Replicate.valid_records;
      Alcotest.(check (list string))
        "intact journal re-queues the tail job too" [ "j-1"; "j-tail" ]
        (List.sort compare plan.Replicate.requeue))

(* ------------------------------------------------------------------ *)
(* Satellite: `psdp submit` exits with the documented code 3 when no
   coordinator is reachable after the retry budget runs out. *)

let test_submit_unreachable_exit () =
  with_temp_dir (fun dir ->
      let manifest = Filename.concat dir "jobs.manifest" in
      let oc = open_out manifest in
      output_string oc
        "{\"id\": \"u-1\", \"op\": \"solve\", \"file\": \"/nonexistent.inst\", \
         \"eps\": 0.3}\n";
      close_out oc;
      let code =
        run_cli
          [ "submit"; manifest; "--connect";
            "unix:" ^ Filename.concat dir "nobody-home.sock";
            "--retry-cycles"; "2" ]
      in
      Alcotest.(check int) "documented unreachable exit code" 3 code)

(* ------------------------------------------------------------------ *)
(* Globally unique engine job ids *)

let tiny_instance seed =
  let rng = Rng.create seed in
  Psdp_instances.Diagonal.random ~rng ~dim:3 ~n:2 ()

let test_unique_auto_ids () =
  let grab () =
    Engine.with_engine ~max_in_flight:1 (fun eng ->
        let h1 = Engine.submit eng (Job.solve_spec ~eps:0.3 (Job.Inline (tiny_instance 1))) in
        let h2 = Engine.submit eng (Job.solve_spec ~eps:0.3 (Job.Inline (tiny_instance 2))) in
        List.iter (fun h -> ignore (Engine.await eng h)) [ h1; h2 ];
        (Engine.job_id h1, Engine.job_id h2))
  in
  let a1, a2 = grab () in
  let b1, b2 = grab () in
  let ids = [ a1; a2; b1; b2 ] in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "%s has job-<nonce>-<seq> shape" id)
        true
        (String.length id > 5
        && String.sub id 0 4 = "job-"
        && String.contains_from id 4 '-'))
    ids;
  Alcotest.(check int)
    "all four auto ids are distinct" 4
    (List.length (List.sort_uniq compare ids));
  (* Same engine, consecutive seqs share the nonce; engines do not. *)
  let nonce id = List.nth (String.split_on_char '-' id) 1 in
  Alcotest.(check string) "within-engine nonce stable" (nonce a1) (nonce a2);
  Alcotest.(check bool)
    "across-engine nonces differ" false
    (nonce a1 = nonce b1)

(* ------------------------------------------------------------------ *)
(* Chaos acceptance: kill a worker mid-solve, everything still lands *)

let spawn args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () -> Unix.create_process cli (Array.of_list (cli :: args)) null null null)

let kill9 pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
let reap_pid pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub hay i nn = needle then true
    else scan (i + 1)
  in
  nn = 0 || scan 0

(* Poll [path] until it contains [needle] (a trace event kind, say) or
   the deadline passes. The writers flush every event, so the only wait
   is for the event itself to happen. *)
let wait_for_event ~timeout path needle =
  let deadline = Unix.gettimeofday () +. timeout in
  let look () =
    Sys.file_exists path
    &&
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        contains_substring (really_input_string ic (in_channel_length ic)) needle)
  in
  let rec go () =
    if look () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.25;
      go ()
    end
  in
  go ()

(* The client now retries internally (decorrelated-jitter backoff over
   the address list), so "wait for the coordinator to come up" is just
   a connect with the default budget. *)
let connect_with_retry addrs =
  match Client.connect addrs with
  | Ok c -> c
  | Error f ->
      Alcotest.failf "coordinator never came up: %s"
        (Client.failure_to_string f)

let test_chaos_reroute () =
  with_temp_dir (fun dir ->
      let inst1 = Filename.concat dir "p.inst" in
      let inst2 = Filename.concat dir "c.inst" in
      Alcotest.(check int)
        "gen projectors" 0
        (run_cli
           [ "gen"; "--family"; "projectors"; "--dim"; "10"; "-n"; "5";
             "-o"; inst1 ]);
      Alcotest.(check int)
        "gen cycle" 0
        (run_cli [ "gen"; "--family"; "cycle"; "--dim"; "6"; "-o"; inst2 ]);
      let sock = Filename.concat dir "c.sock" in
      let addr = Transport.Unix_sock sock in
      let store_dir = Filename.concat dir "store" in
      let coord =
        spawn
          [ "coordinator"; "--listen"; "unix:" ^ sock; "--checkpoint-dir";
            store_dir; "--heartbeat"; "0.25"; "--grace"; "1.0" ]
      in
      let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> () in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill coord Sys.sigkill with Unix.Unix_error _ -> ());
          reap coord)
        (fun () ->
          let client = connect_with_retry [ addr ] in
          let w1 =
            spawn [ "worker"; "--connect"; "unix:" ^ sock; "--name"; "w1";
                    "--capacity"; "5" ]
          in
          let w2 =
            spawn [ "worker"; "--connect"; "unix:" ^ sock; "--name"; "w2";
                    "--capacity"; "5" ]
          in
          Fun.protect
            ~finally:(fun () ->
              (try Unix.kill w2 Sys.sigkill with Unix.Unix_error _ -> ());
              reap w1;
              reap w2)
            (fun () ->
              let jobs =
                List.init 10 (fun i ->
                    Job.solve_spec
                      ~id:(Printf.sprintf "chaos-%d" i)
                      ~eps:0.07
                      (Job.File (if i mod 2 = 0 then inst1 else inst2)))
              in
              List.iter
                (fun spec ->
                  match Client.submit client spec with
                  | Ok () -> ()
                  | Error f -> Alcotest.fail (Client.failure_to_string f))
                jobs;
              (* Let assignments land and solves start, then murder w1:
                 SIGKILL — no goodbye, no flush, a real crash. *)
              Unix.sleepf 1.0;
              Unix.kill w1 Sys.sigkill;
              (match Client.collect ~timeout:240.0 client ~expected:10 with
              | Error f -> Alcotest.fail (Client.failure_to_string f)
              | Ok results ->
                  Alcotest.(check int) "all results" 10 (List.length results);
                  List.iter
                    (fun (r : Job.result) ->
                      match r.Job.outcome with
                      | Job.Solved { certified; _ } ->
                          Alcotest.(check bool)
                            (r.Job.id ^ " certified") true certified
                      | other ->
                          Alcotest.failf "%s did not solve: %s" r.Job.id
                            (match other with
                            | Job.Failed m -> m
                            | Job.Cancelled -> "cancelled"
                            | Job.Timed_out -> "timeout"
                            | _ -> "?"))
                    results);
              Client.shutdown_cluster client;
              Client.close client;
              (* The WAL must show the story: 10 submissions, 10
                 completions, and at least one job assigned twice —
                 first to the murdered worker, then elsewhere. *)
              let records, torn =
                Journal.replay (Filename.concat store_dir "journal.jsonl")
              in
              Alcotest.(check (option string)) "journal intact" None torn;
              let count k =
                List.length
                  (List.filter
                     (fun r ->
                       match (r, k) with
                       | Journal.Submitted _, `S -> true
                       | Journal.Completed _, `C -> true
                       | _ -> false)
                     records)
              in
              Alcotest.(check int) "submitted" 10 (count `S);
              Alcotest.(check int) "completed" 10 (count `C);
              let assignments = Hashtbl.create 16 in
              List.iter
                (function
                  | Journal.Assigned { job; worker } ->
                      Hashtbl.replace assignments job
                        (worker
                        :: (Option.value ~default:[]
                              (Hashtbl.find_opt assignments job)))
                  | _ -> ())
                records;
              let rerouted =
                Hashtbl.fold
                  (fun _ ws acc -> acc || List.length ws >= 2)
                  assignments false
              in
              Alcotest.(check bool)
                "some job was assigned twice (rerouted)" true rerouted)))

(* ------------------------------------------------------------------ *)
(* Worker/coordinator liveness *)

let gen_cycle dir =
  let inst = Filename.concat dir "c.inst" in
  Alcotest.(check int)
    "gen cycle" 0
    (run_cli [ "gen"; "--family"; "cycle"; "--dim"; "6"; "-o"; inst ]);
  inst

(* A Submit that reaches the worker in the same read as its Welcome is
   handled at once, not at the next heartbeat tick. The test plays the
   coordinator, so both frames go out in one write. *)
let test_submit_with_welcome () =
  with_temp_dir (fun dir ->
      let inst = gen_cycle dir in
      let sock = Filename.concat dir "fake.sock" in
      let lfd =
        match Transport.listen (Transport.Unix_sock sock) with
        | Ok fd -> fd
        | Error e -> Alcotest.fail e
      in
      let worker = spawn [ "worker"; "--connect"; "unix:" ^ sock; "--name"; "w1" ] in
      Fun.protect
        ~finally:(fun () ->
          kill9 worker;
          reap_pid worker;
          Unix.close lfd)
        (fun () ->
          (match Unix.select [ lfd ] [] [] 30.0 with
          | [], _, _ -> Alcotest.fail "worker never connected"
          | _ -> ());
          let cfd, _ = Unix.accept lfd in
          let conn = Transport.of_fd cfd in
          (match Transport.recv conn with
          | Proto.Hello _ -> ()
          | m -> Alcotest.failf "expected a hello, got %s" (Proto.describe m));
          let heartbeat_every = 6.0 in
          let frames =
            Proto.encode
              (Proto.Welcome { coordinator = "test"; heartbeat_every; epoch = 1 })
            ^ Proto.encode
                (Proto.Submit
                   {
                     spec = Job.solve_spec ~id:"early" ~eps:0.5 (Job.File inst);
                     epoch = 1;
                   })
          in
          Alcotest.(check int) "welcome and submit in one write"
            (String.length frames)
            (Unix.write_substring cfd frames 0 (String.length frames));
          let t0 = Unix.gettimeofday () in
          (match Transport.recv conn with
          | Proto.Result
              { result = { Job.outcome = Job.Solved { certified = true; _ }; _ } }
            ->
              ()
          | m ->
              Alcotest.failf "expected the job's result, got %s"
                (Proto.describe m));
          let took = Unix.gettimeofday () -. t0 in
          if took >= heartbeat_every /. 2.0 then
            Alcotest.failf "the buffered submit took %.2fs" took;
          Transport.close conn))

(* Every worker_dead event in a coordinator trace, with its reason and
   its time relative to the last completed assignment and to the
   coordinator's stop (which shutdown_cluster requests) — what tells a
   death mid-stream from one at shutdown. Empty when there is none. *)
let describe_worker_deaths path =
  let events =
    if not (Sys.file_exists path) then []
    else
      In_channel.with_open_bin path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter_map (fun line -> Result.to_option (Json.parse line))
  in
  let field k conv e = Option.bind (Json.mem k e) conv in
  let time e = Option.value (field "t" Json.num e) ~default:Float.nan in
  let is kind e = field "kind" Json.str e = Some kind in
  let last_assign =
    List.fold_left
      (fun acc e ->
        if is "span" e && field "name" Json.str e = Some "assign" then
          Float.max acc (time e)
        else acc)
      Float.neg_infinity events
  in
  let stopped = Option.map time (List.find_opt (is "coordinator_stopped") events) in
  List.filter (is "worker_dead") events
  |> List.map (fun e ->
         let t = time e in
         Printf.sprintf
           "worker_dead at t=%.3fs (reason %S): %+.3fs from the last completed \
            job, %s"
           t
           (Option.value (field "reason" Json.str e) ~default:"?")
           (t -. last_assign)
           (match stopped with
           | Some ts -> Printf.sprintf "%+.3fs from shutdown_cluster" (t -. ts)
           | None -> "no coordinator_stopped event"))
  |> String.concat "; "

(* A worker kept busy past the grace period never idles long enough to
   heartbeat; its result frames must keep it alive. *)
let test_busy_worker_alive () =
  with_temp_dir (fun dir ->
      let inst = gen_cycle dir in
      let sock = Filename.concat dir "c.sock" in
      let store_dir = Filename.concat dir "store" in
      let trace = Filename.concat dir "coord.trace" in
      let procs =
        ref
          [
            spawn
              [ "coordinator"; "--listen"; "unix:" ^ sock; "--checkpoint-dir";
                store_dir; "--heartbeat"; "0.25"; "--grace"; "0.75";
                "--trace"; trace ];
          ]
      in
      Fun.protect
        ~finally:(fun () ->
          List.iter kill9 !procs;
          List.iter reap_pid !procs)
        (fun () ->
          let client = connect_with_retry [ Transport.Unix_sock sock ] in
          procs :=
            spawn
              [ "worker"; "--connect"; "unix:" ^ sock; "--name"; "w1";
                "--capacity"; "2" ]
            :: !procs;
          (* One in flight: a cold solve, then cached resubmissions for
             four times the grace period. *)
          let stop = Unix.gettimeofday () +. 3.0 in
          let n = ref 0 in
          while Unix.gettimeofday () < stop do
            incr n;
            (match
               Client.submit client
                 (Job.solve_spec ~id:(Printf.sprintf "busy-%d" !n) ~eps:0.5
                    (Job.File inst))
             with
            | Ok () -> ()
            | Error f -> Alcotest.fail (Client.failure_to_string f));
            match Client.collect ~timeout:60.0 client ~expected:1 with
            | Ok [ { Job.outcome = Job.Solved { certified = true; _ }; _ } ] -> ()
            | Ok _ -> Alcotest.fail "expected one certified solve"
            | Error f -> Alcotest.fail (Client.failure_to_string f)
          done;
          Client.shutdown_cluster client;
          Client.close client);
      (* Records and events are flushed as they are written; the
         processes are gone by now. *)
      let records, _ =
        Journal.replay (Filename.concat store_dir "journal.jsonl")
      in
      let count p = List.length (List.filter p records) in
      let completed = count (function Journal.Completed _ -> true | _ -> false) in
      let why label =
        match describe_worker_deaths trace with
        | "" -> label
        | deaths -> Printf.sprintf "%s [%s]" label deaths
      in
      Alcotest.(check bool) (why "a stream of jobs ran") true (completed > 10);
      Alcotest.(check int) (why "every job assigned once: zero reroutes")
        completed
        (count (function Journal.Assigned _ -> true | _ -> false));
      Alcotest.(check bool) (why "no worker_dead in the coordinator trace") false
        (wait_for_event ~timeout:0.0 trace "worker_dead"))

(* ------------------------------------------------------------------ *)
(* Failover acceptance: SIGKILL the primary mid-batch with a warm
   standby tailing its WAL. The standby must take over under a bumped
   fencing epoch, every inflight job must certify exactly once through
   the self-healing workers and client, and — the split-brain half — a
   resurrected deposed primary must be refused by the workers. *)

let test_failover_takeover () =
  with_temp_dir (fun dir ->
      let inst1 = Filename.concat dir "p.inst" in
      let inst2 = Filename.concat dir "c.inst" in
      Alcotest.(check int)
        "gen projectors" 0
        (run_cli
           [ "gen"; "--family"; "projectors"; "--dim"; "10"; "-n"; "5";
             "-o"; inst1 ]);
      Alcotest.(check int)
        "gen cycle" 0
        (run_cli [ "gen"; "--family"; "cycle"; "--dim"; "6"; "-o"; inst2 ]);
      let sock_a = Filename.concat dir "a.sock" in
      let sock_b = Filename.concat dir "b.sock" in
      let store_a = Filename.concat dir "store-a" in
      let store_b = Filename.concat dir "store-b" in
      let both = Printf.sprintf "unix:%s,unix:%s" sock_a sock_b in
      let trace_w1 = Filename.concat dir "w1.trace" in
      let trace_w2 = Filename.concat dir "w2.trace" in
      let trace_b = Filename.concat dir "b.trace" in
      let procs = ref [] in
      let spawn' args =
        let pid = spawn args in
        procs := pid :: !procs;
        pid
      in
      Fun.protect
        ~finally:(fun () ->
          List.iter kill9 !procs;
          List.iter reap_pid !procs)
        (fun () ->
          let coordinator_args sock store =
            [ "coordinator"; "--listen"; "unix:" ^ sock; "--checkpoint-dir";
              store; "--heartbeat"; "0.25"; "--grace"; "1.0" ]
          in
          let primary = spawn' (coordinator_args sock_a store_a) in
          let standby =
            spawn'
              (coordinator_args sock_b store_b
              @ [ "--standby"; "--peers"; "unix:" ^ sock_a; "--name"; "sb";
                  "--trace"; trace_b ])
          in
          ignore
            (spawn'
               [ "worker"; "--connect"; both; "--name"; "f1"; "--capacity";
                 "5"; "--trace"; trace_w1 ]);
          ignore
            (spawn'
               [ "worker"; "--connect"; both; "--name"; "f2"; "--capacity";
                 "5"; "--trace"; trace_w2 ]);
          let client =
            connect_with_retry
              [ Transport.Unix_sock sock_a; Transport.Unix_sock sock_b ]
          in
          let jobs =
            List.init 10 (fun i ->
                Job.solve_spec
                  ~id:(Printf.sprintf "ha-%d" i)
                  ~eps:0.1
                  (Job.File (if i mod 2 = 0 then inst1 else inst2)))
          in
          List.iter
            (fun spec ->
              match Client.submit client spec with
              | Ok () -> ()
              | Error f -> Alcotest.fail (Client.failure_to_string f))
            jobs;
          (* Warm phase: the cluster is demonstrably flowing — then the
             primary dies mid-batch, no goodbye, no flush. *)
          let warm =
            match Client.collect ~timeout:240.0 client ~expected:3 with
            | Ok rs -> rs
            | Error f ->
                Alcotest.failf "warm phase: %s" (Client.failure_to_string f)
          in
          (* A standby that never tailed the WAL holds nothing to take
             over, and the projector jobs can finish before it attaches. *)
          if not (wait_for_event ~timeout:60.0 trace_b "standby_tailing") then
            Alcotest.fail "the standby never tailed the primary's WAL";
          kill9 primary;
          reap_pid primary;
          let rest =
            match
              Client.collect ~timeout:240.0 client
                ~expected:(10 - List.length warm)
            with
            | Ok rs -> rs
            | Error f ->
                Alcotest.failf "post-failover collect: %s"
                  (Client.failure_to_string f)
          in
          let results = warm @ rest in
          Alcotest.(check (list string))
            "every job delivered exactly once"
            (List.sort compare (List.map (fun (s : Job.spec) -> s.Job.id) jobs))
            (List.sort compare
               (List.map (fun (r : Job.result) -> r.Job.id) results));
          List.iter
            (fun (r : Job.result) ->
              match r.Job.outcome with
              | Job.Solved { certified; _ } ->
                  Alcotest.(check bool) (r.Job.id ^ " certified") true certified
              | _ -> Alcotest.failf "%s did not solve" r.Job.id)
            results;
          Client.close client;
          (* The replica journal tells the promotion story: intact, a
             bumped reign, and each job completed exactly once. *)
          let records, torn =
            Journal.replay (Filename.concat store_b "journal.jsonl")
          in
          Alcotest.(check (option string)) "replica journal intact" None torn;
          Alcotest.(check bool)
            "standby reigns under epoch 2" true
            (List.exists
               (function Journal.Epoch { epoch } -> epoch = 2 | _ -> false)
               records);
          let completed =
            List.filter_map
              (function Journal.Completed { job; _ } -> Some job | _ -> None)
              records
          in
          Alcotest.(check int) "10 completion records" 10
            (List.length completed);
          Alcotest.(check int) "no job completed twice" 10
            (List.length (List.sort_uniq compare completed));
          (* Split-brain: bring the deposed primary's lineage back on
             its old address with its stale epoch-1 store, then kill
             the promoted standby. The workers fail back to the first
             address, meet a Welcome from the past, and must refuse
             it. *)
          ignore (spawn' (coordinator_args sock_a store_a));
          kill9 standby;
          reap_pid standby;
          Alcotest.(check bool)
            "worker f1 refuses the deposed coordinator" true
            (wait_for_event ~timeout:90.0 trace_w1 "fence_rejected");
          Alcotest.(check bool)
            "worker f2 refuses the deposed coordinator" true
            (wait_for_event ~timeout:90.0 trace_w2 "fence_rejected")))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "dist"
    [
      ( "frame",
        [
          Alcotest.test_case "round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "incremental" `Quick test_frame_incremental;
          Alcotest.test_case "rejects" `Quick test_frame_rejects;
        ] );
      ( "proto",
        [
          Alcotest.test_case "round-trip" `Quick test_proto_roundtrip;
          Alcotest.test_case "rejects" `Quick test_proto_rejects;
          Alcotest.test_case "trace context" `Quick test_proto_trace_context;
        ] );
      ( "transport",
        [
          Alcotest.test_case "round-trip" `Quick test_transport_roundtrip;
          Alcotest.test_case "protocol failure" `Quick
            test_transport_protocol_failure;
          Alcotest.test_case "partial writes under signals" `Quick
            test_transport_partial_writes;
        ] );
      ( "wal",
        [
          Alcotest.test_case "assigned record" `Quick test_journal_assigned;
          Alcotest.test_case "store tracks assignment" `Quick
            test_store_tracks_assignment;
          Alcotest.test_case "torn tail at every offset" `Quick
            test_torn_tail_every_offset;
        ] );
      ( "cli",
        [
          Alcotest.test_case "submit unreachable exit code" `Quick
            test_submit_unreachable_exit;
        ] );
      ( "engine-ids",
        [ Alcotest.test_case "globally unique" `Quick test_unique_auto_ids ] );
      ( "chaos",
        [ Alcotest.test_case "kill worker mid-solve" `Slow test_chaos_reroute ] );
      ( "liveness",
        [
          Alcotest.test_case "submit with the welcome" `Slow
            test_submit_with_welcome;
          Alcotest.test_case "busy worker stays alive" `Slow
            test_busy_worker_alive;
        ] );
      ( "failover",
        [
          Alcotest.test_case "kill primary mid-batch" `Slow
            test_failover_takeover;
        ] );
    ]
