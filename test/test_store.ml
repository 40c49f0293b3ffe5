(* Tests for the checkpoint/recovery subsystem: snapshot codec
   (round-trips and corruption), atomic writes under injected crashes,
   journal replay with torn tails, store pending semantics, and the
   end-to-end acceptance scenario — crash an engine mid-solve at every
   kill point, recover, and get the same certified answer an
   uninterrupted run produces. *)

open Psdp_prelude
open Psdp_core
open Psdp_instances
open Psdp_store
open Psdp_engine
module Failpoint = Psdp_fault.Failpoint

let mktempdir () =
  let path = Filename.temp_file "psdp_store" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tempdir f =
  let dir = mktempdir () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with _ -> ()) (fun () -> f dir)

let ok_or_fail what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" what msg

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Checksum *)

let test_checksum_known_values () =
  (* Published FNV-1a-64 test vectors. *)
  Alcotest.(check string) "empty" "cbf29ce484222325" (Checksum.fnv1a64_hex "");
  Alcotest.(check string) "a" "af63dc4c8601ec8c" (Checksum.fnv1a64_hex "a");
  Alcotest.(check string) "foobar" "85944171f73967e8"
    (Checksum.fnv1a64_hex "foobar");
  Alcotest.(check bool) "sensitive to every byte" true
    (Checksum.fnv1a64 "snapshot\x00" <> Checksum.fnv1a64 "snapshot\x01")

(* ------------------------------------------------------------------ *)
(* Snapshot codec *)

let snap ?(digest = "d3adb33f") ?(eps = 0.1) ?(backend = "exact")
    ?(mode = "adaptive:10") ?(x = [| 0.5; 0.0; 1.25 |]) ?(rng = [||]) () =
  {
    Snapshot.digest;
    eps;
    backend;
    mode;
    threshold = 1.7320508;
    lo = 1.0;
    hi = 3.0;
    value = 1.5;
    calls = 4;
    iterations = 123;
    dropped = 1;
    x;
    rng;
  }

let snapshot_equal (a : Snapshot.t) (b : Snapshot.t) =
  a.Snapshot.digest = b.Snapshot.digest
  && a.Snapshot.backend = b.Snapshot.backend
  && a.Snapshot.mode = b.Snapshot.mode
  && a.Snapshot.calls = b.Snapshot.calls
  && a.Snapshot.iterations = b.Snapshot.iterations
  && a.Snapshot.dropped = b.Snapshot.dropped
  && List.for_all
       (fun (p, q) -> Int64.bits_of_float p = Int64.bits_of_float q)
       [
         (a.Snapshot.eps, b.Snapshot.eps);
         (a.Snapshot.threshold, b.Snapshot.threshold);
         (a.Snapshot.lo, b.Snapshot.lo);
         (a.Snapshot.hi, b.Snapshot.hi);
         (a.Snapshot.value, b.Snapshot.value);
       ]
  && Array.length a.Snapshot.x = Array.length b.Snapshot.x
  && Array.for_all2
       (fun p q -> Int64.bits_of_float p = Int64.bits_of_float q)
       a.Snapshot.x b.Snapshot.x
  && a.Snapshot.rng = b.Snapshot.rng

let test_snapshot_roundtrip () =
  let samples =
    [
      snap ();
      snap ~x:[||] ();
      snap ~digest:"" ~backend:"" ~mode:"" ();
      snap ~x:[| Float.max_float; 4.9e-324; -0.0; 1.0 /. 3.0 |] ();
      snap ~rng:[| 1L; -2L; Int64.max_int; Int64.min_int |] ();
      snap ~digest:(String.make 100 'z') ();
    ]
  in
  List.iter
    (fun s ->
      let s' = ok_or_fail "decode" (Snapshot.decode (Snapshot.encode s)) in
      Alcotest.(check bool) "roundtrip equal" true (snapshot_equal s s'))
    samples

let prop_snapshot_roundtrip =
  QCheck.Test.make ~name:"snapshot codec round-trips" ~count:100
    QCheck.(
      quad
        (string_gen_of_size (Gen.int_range 0 20) Gen.printable)
        (float_range 0.01 0.99)
        (list_of_size (Gen.int_range 0 50) float)
        (list_of_size (Gen.int_range 0 4) int64))
    (fun (digest, eps, xs, rs) ->
      let s =
        snap ~digest ~eps
          ~x:(Array.of_list (List.filter Float.is_finite xs))
          ~rng:(Array.of_list rs) ()
      in
      match Snapshot.decode (Snapshot.encode s) with
      | Ok s' -> snapshot_equal s s'
      | Error _ -> false)

let test_snapshot_rejects_truncation () =
  let data = Snapshot.encode (snap ()) in
  for len = 0 to String.length data - 1 do
    match Snapshot.decode (String.sub data 0 len) with
    | Ok _ -> Alcotest.failf "accepted truncation to %d bytes" len
    | Error _ -> ()
  done

let test_snapshot_rejects_bit_flips () =
  let data = Snapshot.encode (snap ()) in
  for i = 0 to String.length data - 1 do
    let b = Bytes.of_string data in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    match Snapshot.decode (Bytes.to_string b) with
    | Ok _ -> Alcotest.failf "accepted byte flip at offset %d" i
    | Error _ -> ()
  done

let test_snapshot_rejects_wrong_version () =
  let data = Snapshot.encode (snap ()) in
  let b = Bytes.of_string data in
  Bytes.set_int32_le b 8 99l;
  (match Snapshot.decode (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "accepted version 99"
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions version: %s" msg)
        true
        (contains_sub msg "version"));
  match Snapshot.decode (String.make 40 '\x00') with
  | Ok _ -> Alcotest.fail "accepted zero bytes"
  | Error _ -> ()

let test_snapshot_rejects_trailing_garbage () =
  let data = Snapshot.encode (snap ()) in
  match Snapshot.decode (data ^ "x") with
  | Ok _ -> Alcotest.fail "accepted trailing bytes"
  | Error _ -> ()

let test_snapshot_save_load () =
  with_tempdir (fun dir ->
      let path = Filename.concat dir "s.snap" in
      let s = snap () in
      Snapshot.save path s;
      let s' = ok_or_fail "load" (Snapshot.load path) in
      Alcotest.(check bool) "file roundtrip" true (snapshot_equal s s');
      (match Snapshot.load (Filename.concat dir "missing.snap") with
      | Ok _ -> Alcotest.fail "loaded a missing file"
      | Error _ -> ());
      (* Corrupt the file on disk; load must reject it cleanly. *)
      let oc = open_out_gen [ Open_wronly ] 0o644 path in
      seek_out oc 25;
      output_string oc "\xff\xff\xff";
      close_out oc;
      match Snapshot.load path with
      | Ok _ -> Alcotest.fail "loaded a corrupted file"
      | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Atomic writes under injected crashes *)

let test_atomic_write_kill_points () =
  with_tempdir (fun dir ->
      let path = Filename.concat dir "target" in
      Atomic_io.write_atomic path "original";
      let crash_at point =
        Failpoint.arm point (Failpoint.Fail "boom");
        Fun.protect
          ~finally:(fun () -> Failpoint.reset ())
          (fun () ->
            match Atomic_io.write_atomic path "replacement" with
            | () -> Alcotest.fail "failpoint did not fire"
            | exception Failpoint.Injected _ -> ())
      in
      (* Crash before/after writing the temp file: target untouched. *)
      crash_at "store.write.before";
      Alcotest.(check string) "before_write: old content intact" "original"
        (ok_or_fail "read" (Atomic_io.read_file path));
      crash_at "store.write.after_write";
      Alcotest.(check string) "after_write: old content intact" "original"
        (ok_or_fail "read" (Atomic_io.read_file path));
      (* Crash after the rename: new content fully in place. *)
      crash_at "store.write.after_rename";
      Alcotest.(check string) "after_rename: new content" "replacement"
        (ok_or_fail "read" (Atomic_io.read_file path));
      (* Never a torn mix, and a clean retry succeeds. *)
      Atomic_io.write_atomic path "final";
      Alcotest.(check string) "clean write" "final"
        (ok_or_fail "read" (Atomic_io.read_file path));
      (* A corrupt-bytes failpoint at the data point flips one byte:
         the write completes but the payload differs. *)
      Failpoint.arm "store.write.data" Failpoint.Corrupt;
      Fun.protect
        ~finally:(fun () -> Failpoint.reset ())
        (fun () ->
          Atomic_io.write_atomic path "untainted";
          Alcotest.(check bool) "payload corrupted in flight" true
            (ok_or_fail "read" (Atomic_io.read_file path) <> "untainted")))

(* ------------------------------------------------------------------ *)
(* Journal *)

let journal_samples =
  [
    Journal.Submitted
      { job = "j1"; spec = Json.Obj [ ("file", Json.Str "a.inst") ] };
    Journal.Checkpoint { job = "j1"; call = 3; snapshot = "snapshots/j1.snap" };
    Journal.Completed { job = "j1"; status = "ok"; result = None };
    Journal.Completed
      {
        job = "j9";
        status = "ok";
        result = Some (Json.Obj [ ("id", Json.Str "j9") ]);
      };
    Journal.Epoch { epoch = 3 };
    Journal.Cancelled { job = "j2"; reason = "timeout" };
    Journal.Quarantined { job = "j3"; reason = "poison"; attempts = 3 };
  ]

let test_journal_line_roundtrip () =
  List.iter
    (fun r ->
      let line = Journal.to_line r in
      Alcotest.(check bool) "single line" false (String.contains line '\n');
      let r' = ok_or_fail "of_line" (Journal.of_line line) in
      Alcotest.(check string) "roundtrip" line (Journal.to_line r'))
    journal_samples

let test_journal_rejects_tampering () =
  let line = Journal.to_line (List.hd journal_samples) in
  (* Flip one character in the body: the crc must catch it. *)
  let b = Bytes.of_string line in
  let idx = String.index line '1' in
  Bytes.set b idx '2';
  (match Journal.of_line (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "accepted tampered line"
  | Error _ -> ());
  List.iter
    (fun bad ->
      match Journal.of_line bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [
      "";
      "not json";
      "{}";
      "[1]";
      {|{"kind":"submitted","job":"x","spec":{}}|};
      {|{"kind":"submitted","job":"x","spec":{},"crc":"0000000000000000"}|};
      {|{"kind":"wat","job":"x","crc":"0000000000000000"}|};
    ]

let test_journal_replay_torn_tail () =
  with_tempdir (fun dir ->
      let path = Filename.concat dir "journal.jsonl" in
      Alcotest.(check bool) "missing file: empty replay" true
        (Journal.replay path = ([], None));
      let oc = open_out path in
      List.iter
        (fun r ->
          output_string oc (Journal.to_line r);
          output_char oc '\n')
        journal_samples;
      (* A torn final line, as left by a crash mid-append. *)
      output_string oc {|{"kind":"submitted","job":"torn","sp|};
      close_out oc;
      let records, err = Journal.replay path in
      Alcotest.(check int) "valid prefix kept"
        (List.length journal_samples)
        (List.length records);
      Alcotest.(check bool) "torn tail reported" true (err <> None);
      List.iter2
        (fun a b ->
          Alcotest.(check string) "record order preserved" (Journal.to_line a)
            (Journal.to_line b))
        journal_samples records)

(* ------------------------------------------------------------------ *)
(* Store: pending computation and persistence *)

let submit_record job =
  Journal.Submitted
    { job; spec = Json.Obj [ ("file", Json.Str (job ^ ".inst")) ] }

let test_store_pending_lifecycle () =
  with_tempdir (fun dir ->
      let store = ok_or_fail "open" (Store.open_store dir) in
      Alcotest.(check int) "fresh store: nothing pending" 0
        (List.length (Store.pending store));
      Store.append store (submit_record "done");
      Store.append store
        (Journal.Completed { job = "done"; status = "ok"; result = None });
      Store.append store (submit_record "crashed");
      Store.append store
        (Journal.Checkpoint
           { job = "crashed"; call = 2; snapshot = "snapshots/c.snap" });
      Store.append store (submit_record "cancelled");
      Store.append store
        (Journal.Cancelled { job = "cancelled"; reason = "cancel" });
      Store.append store (submit_record "untouched");
      Store.close store;
      let store = ok_or_fail "reopen" (Store.open_store dir) in
      let pending = Store.pending store in
      Alcotest.(check (list string))
        "pending jobs, submission order"
        [ "crashed"; "cancelled"; "untouched" ]
        (List.map (fun (p : Store.pending) -> p.Store.job) pending);
      let find job =
        List.find (fun (p : Store.pending) -> p.Store.job = job) pending
      in
      Alcotest.(check (option string))
        "crashed kept its snapshot" (Some "snapshots/c.snap")
        (find "crashed").Store.snapshot;
      Alcotest.(check (option string))
        "crash has no interruption reason" None
        (find "crashed").Store.interrupted;
      Alcotest.(check (option string))
        "cancellation reason kept" (Some "cancel")
        (find "cancelled").Store.interrupted;
      Alcotest.(check (option string))
        "untouched has no snapshot" None (find "untouched").Store.snapshot;
      (* Re-submission of a recovered job keeps its earned snapshot. *)
      Store.append store (submit_record "crashed");
      Store.close store;
      let store = ok_or_fail "reopen 2" (Store.open_store dir) in
      Alcotest.(check (option string))
        "snapshot survives re-submission" (Some "snapshots/c.snap")
        (List.find
           (fun (p : Store.pending) -> p.Store.job = "crashed")
           (Store.pending store))
          .Store.snapshot;
      Store.close store)

let test_store_quarantine_listing () =
  with_tempdir (fun dir ->
      let store = ok_or_fail "open" (Store.open_store dir) in
      Store.append store (submit_record "poison");
      Store.append store
        (Journal.Quarantined
           { job = "poison"; reason = "always fails"; attempts = 3 });
      Store.append store (submit_record "healthy");
      Store.close store;
      let store = ok_or_fail "reopen" (Store.open_store dir) in
      (* Quarantine is terminal for recovery: the job leaves pending. *)
      Alcotest.(check (list string))
        "quarantined job not pending" [ "healthy" ]
        (List.map (fun (p : Store.pending) -> p.Store.job)
           (Store.pending store));
      (match Store.quarantined store with
      | [ q ] ->
          Alcotest.(check string) "job listed" "poison" q.Store.job;
          Alcotest.(check string) "reason kept" "always fails" q.Store.reason;
          Alcotest.(check int) "attempts kept" 3 q.Store.attempts
      | l -> Alcotest.failf "expected one quarantined job, got %d"
               (List.length l));
      (* A deliberate re-submission releases the job from quarantine. *)
      Store.append store (submit_record "poison");
      Store.close store;
      let store = ok_or_fail "reopen 2" (Store.open_store dir) in
      Alcotest.(check int) "released from quarantine" 0
        (List.length (Store.quarantined store));
      Alcotest.(check bool) "pending again" true
        (List.exists
           (fun (p : Store.pending) -> p.Store.job = "poison")
           (Store.pending store));
      Store.close store)

let test_store_snapshot_files_and_tmp_sweep () =
  with_tempdir (fun dir ->
      let store = ok_or_fail "open" (Store.open_store dir) in
      let rel = Store.save_snapshot store ~job:"weird/job: id*" (snap ()) in
      Alcotest.(check bool) "relative path" true (Filename.is_relative rel);
      let s' = ok_or_fail "load" (Store.load_snapshot store rel) in
      Alcotest.(check bool)
        "snapshot survives" true
        (snapshot_equal (snap ()) s');
      Alcotest.(check string) "deterministic path" rel
        (Store.snapshot_rel ~job:"weird/job: id*");
      Alcotest.(check bool) "distinct jobs, distinct files" true
        (Store.snapshot_rel ~job:"a" <> Store.snapshot_rel ~job:"b");
      (* Sanitization can collide on the name part; the checksum suffix
         must keep the paths distinct. *)
      Alcotest.(check bool) "sanitize collisions disambiguated" true
        (Store.snapshot_rel ~job:"a/b" <> Store.snapshot_rel ~job:"a_b");
      (* Stale temp files from a crashed atomic write are swept. *)
      let stale = Filename.concat dir "snapshots/x.snap.tmp.1234" in
      let oc = open_out stale in
      output_string oc "partial";
      close_out oc;
      Store.close store;
      let store = ok_or_fail "reopen" (Store.open_store dir) in
      Alcotest.(check bool) "tmp file swept" false (Sys.file_exists stale);
      Store.close store)

(* ------------------------------------------------------------------ *)
(* Engine integration: checkpoint, crash, recover *)

let proj () =
  Known_opt.orthogonal_projectors ~rng:(Rng.create 7) ~dim:8 ~n:3

(* Crash recovery needs a solve that spans several decision calls: edge
   packing on the cycle C₅ takes four at ε = 0.2, and its optimum is
   known in closed form. *)
let cycle () =
  (Graph_packing.edge_packing (Graph.cycle 5), Graph_packing.edge_packing_opt_cycle 5)

let kind_of v = Option.bind (Json.mem "kind" v) Json.str

let count_kind events kind =
  List.length (List.filter (fun e -> kind_of e = Some kind) events)

type solved = {
  value : float;
  upper : float;
  calls : int;
  certified : bool;
}

let outcome_name = function
  | Job.Solved _ -> "Solved"
  | Job.Decided _ -> "Decided"
  | Job.Failed m -> "Failed: " ^ m
  | Job.Cancelled -> "Cancelled"
  | Job.Timed_out -> "Timed_out"

let solved (r : Job.result) =
  match r.Job.outcome with
  | Job.Solved { value; upper_bound; decision_calls; certified; _ } ->
      { value; upper = upper_bound; calls = decision_calls; certified }
  | o ->
      Alcotest.failf "job %s: expected Solved, got %s" r.Job.id
        (outcome_name o)

let run_store_engine ?(trace = Trace.null) dir f =
  let store = ok_or_fail "open store" (Store.open_store dir) in
  Fun.protect
    ~finally:(fun () -> Store.close store)
    (fun () ->
      Engine.with_engine ~pool:Psdp_parallel.Pool.sequential ~max_in_flight:1
        ~store ~trace ~checkpoint_every:1 f)

(* Kill the store on the [n]-th snapshot write, at the given point. *)
let arm_snapshot_kill point n =
  Failpoint.arm ~trigger:(Failpoint.Nth n)
    ~filter:(fun path -> Filename.check_suffix path ".snap")
    point
    (Failpoint.Fail "snapshot write crash")

let eps = 0.2

(* The acceptance scenario, parameterized over the kill point: an engine
   with a checkpoint store crashes while persisting a snapshot; a second
   engine over the same store recovers the job and must produce the same
   certified answer as an uninterrupted run. *)
let crash_recover_at point ~kill_after =
  let inst, known_opt = cycle () in
  let uninterrupted = Solver.solve_packing ~eps inst in
  Alcotest.(check bool) "baseline needs several calls" true
    (uninterrupted.Solver.decision_calls > 2);
  with_tempdir (fun dir ->
      (* Phase 1: crash mid-solve. *)
      let r1 =
        Fun.protect
          ~finally:(fun () -> Failpoint.reset ())
          (fun () ->
            arm_snapshot_kill point kill_after;
            run_store_engine dir (fun eng ->
                Engine.await eng
                  (Engine.submit eng
                     (Job.solve_spec ~id:"crashy" ~eps (Job.Inline inst)))))
      in
      (match r1.Job.outcome with
      | Job.Failed msg ->
          Alcotest.(check bool)
            (Printf.sprintf "failure names the store: %s" msg)
            true
            (contains_sub msg "checkpoint store")
      | o -> Alcotest.failf "expected a store failure, got %s" (outcome_name o));
      (* Phase 2: recover in a fresh engine over the same store. *)
      let trace = Trace.memory () in
      let results =
        run_store_engine ~trace dir (fun eng ->
            let handles = Engine.recover eng in
            Alcotest.(check int) "one job recovered" 1 (List.length handles);
            List.map (fun h -> Engine.await eng h) handles)
      in
      let r2 = List.hd results in
      Alcotest.(check string) "journal identity preserved" "crashy" r2.Job.id;
      let s = solved r2 in
      Alcotest.(check bool) "recovered solve certified" true s.certified;
      (* Same guarantee as the uninterrupted run: a certified (1+ε)
         bracket around the known optimum. *)
      let tol = 1e-6 in
      Alcotest.(check bool) "lower bound valid" true
        (s.value <= known_opt +. tol);
      Alcotest.(check bool) "upper bound valid" true
        (s.upper >= known_opt -. tol);
      Alcotest.(check bool) "bracket closed" true
        (s.upper <= ((1.0 +. eps) *. s.value) +. tol);
      Alcotest.(check bool) "matches uninterrupted lower bound" true
        (s.value >= (uninterrupted.Solver.value /. (1.0 +. eps)) -. tol);
      let events = Trace.events trace in
      Alcotest.(check int) "recovery_started traced" 1
        (count_kind events "recovery_started");
      Alcotest.(check int) "job_recovered traced" 1
        (count_kind events "job_recovered");
      (events, s))

let test_crash_before_write () =
  let events, s =
    crash_recover_at "store.write.before" ~kill_after:2
  in
  (* The first snapshot survived, so recovery resumes rather than
     restarting: the resumed run's counters continue past the crash
     point. *)
  Alcotest.(check int) "resume traced" 1 (count_kind events "resume");
  Alcotest.(check bool) "counters continue across the crash" true
    (s.calls > 1)

let test_crash_after_write () =
  ignore (crash_recover_at "store.write.after_write" ~kill_after:2)

let test_crash_after_rename () =
  (* Snapshot file landed but the journal checkpoint record did not; the
     deterministic snapshot path still lets recovery find it. *)
  ignore (crash_recover_at "store.write.after_rename" ~kill_after:2)

let test_crash_on_first_snapshot () =
  (* Crash before any snapshot lands: recovery reruns from scratch. *)
  let events, _ =
    crash_recover_at "store.write.before" ~kill_after:1
  in
  Alcotest.(check int) "no resume without a snapshot" 0
    (count_kind events "resume")

let test_cancelled_job_is_resumable () =
  let inst, known_opt = proj () in
  with_tempdir (fun dir ->
      (* Cancel a job before it runs (paused engine makes this
         deterministic): the journal records an interruption, not a
         completion. *)
      let store = ok_or_fail "open" (Store.open_store dir) in
      let eng =
        Engine.create ~pool:Psdp_parallel.Pool.sequential ~max_in_flight:1
          ~store ~paused:true ()
      in
      let h =
        Engine.submit eng (Job.solve_spec ~id:"cxl" ~eps (Job.Inline inst))
      in
      Alcotest.(check bool) "cancel accepted" true (Engine.cancel eng h);
      Engine.resume eng;
      let r1 = Engine.await eng h in
      Engine.shutdown eng;
      Store.close store;
      Alcotest.(check string) "cancelled outcome" "Cancelled"
        (outcome_name r1.Job.outcome);
      let store = ok_or_fail "reopen" (Store.open_store dir) in
      let pending = Store.pending store in
      Store.close store;
      Alcotest.(check (list string))
        "cancelled job stays pending" [ "cxl" ]
        (List.map (fun (p : Store.pending) -> p.Store.job) pending);
      Alcotest.(check (option string))
        "reason recorded" (Some "cancel")
        (List.hd pending).Store.interrupted;
      (* Recover it: the job runs to a certified completion. *)
      let results =
        run_store_engine dir (fun eng ->
            List.map (fun h -> Engine.await eng h) (Engine.recover eng))
      in
      let s = solved (List.hd results) in
      Alcotest.(check bool) "recovered after cancel" true s.certified;
      Alcotest.(check bool) "recovered answer sound" true
        (s.value <= known_opt +. 1e-6))

let test_digest_mismatch_rejected () =
  let inst, _ = proj () in
  with_tempdir (fun dir ->
      (* Forge a store whose snapshot belongs to different work. *)
      let store = ok_or_fail "open" (Store.open_store dir) in
      let digest = Loader.digest inst in
      let path =
        Store.save_instance store ~digest ~text:(Loader.to_string inst)
      in
      let spec = Job.solve_spec ~id:"forged" ~eps (Job.File path) in
      let spec_json = ok_or_fail "spec json" (Job.spec_to_json spec) in
      Store.append store
        (Journal.Submitted { job = "forged"; spec = spec_json });
      let bogus =
        { (snap ()) with Snapshot.digest = "0000deadbeef0000"; eps }
      in
      let rel = Store.save_snapshot store ~job:"forged" bogus in
      Store.append store
        (Journal.Checkpoint { job = "forged"; call = 4; snapshot = rel });
      Store.close store;
      let trace = Trace.memory () in
      let results =
        run_store_engine ~trace dir (fun eng ->
            List.map (fun h -> Engine.await eng h) (Engine.recover eng))
      in
      let s = solved (List.hd results) in
      Alcotest.(check bool) "solved cold despite forged snapshot" true
        s.certified;
      let events = Trace.events trace in
      Alcotest.(check int) "snapshot rejected exactly once" 1
        (count_kind events "snapshot_rejected");
      Alcotest.(check int) "no resume from a forged snapshot" 0
        (count_kind events "resume"))

let test_corrupt_snapshot_rejected () =
  let inst, _ = proj () in
  with_tempdir (fun dir ->
      let store = ok_or_fail "open" (Store.open_store dir) in
      let digest = Loader.digest inst in
      let path =
        Store.save_instance store ~digest ~text:(Loader.to_string inst)
      in
      let spec = Job.solve_spec ~id:"corrupt" ~eps (Job.File path) in
      let spec_json = ok_or_fail "spec json" (Job.spec_to_json spec) in
      Store.append store
        (Journal.Submitted { job = "corrupt"; spec = spec_json });
      let rel = Store.snapshot_rel ~job:"corrupt" in
      let oc = open_out (Filename.concat dir rel) in
      output_string oc "PSDPSNAPgarbage that is not a valid snapshot";
      close_out oc;
      Store.append store
        (Journal.Checkpoint { job = "corrupt"; call = 1; snapshot = rel });
      Store.close store;
      let trace = Trace.memory () in
      let results =
        run_store_engine ~trace dir (fun eng ->
            List.map (fun h -> Engine.await eng h) (Engine.recover eng))
      in
      let s = solved (List.hd results) in
      Alcotest.(check bool) "solved cold despite corrupt snapshot" true
        s.certified;
      Alcotest.(check int) "corruption traced" 1
        (count_kind (Trace.events trace) "snapshot_rejected"))

let test_completed_jobs_not_recovered () =
  let inst, _ = proj () in
  with_tempdir (fun dir ->
      let r =
        run_store_engine dir (fun eng ->
            Engine.await eng
              (Engine.submit eng
                 (Job.solve_spec ~id:"clean" ~eps (Job.Inline inst))))
      in
      Alcotest.(check bool) "clean run solved" true (solved r).certified;
      let handles = run_store_engine dir (fun eng -> Engine.recover eng) in
      Alcotest.(check int) "nothing to recover" 0 (List.length handles))

let test_inline_instances_journaled_as_files () =
  let inst, _ = proj () in
  with_tempdir (fun dir ->
      ignore
        (run_store_engine dir (fun eng ->
             Engine.await eng
               (Engine.submit eng
                  (Job.solve_spec ~id:"inline" ~eps (Job.Inline inst)))));
      (* The journal must reference a real, reloadable instance file. *)
      let records, err =
        Journal.replay (Filename.concat dir "journal.jsonl")
      in
      Alcotest.(check bool) "journal intact" true (err = None);
      match
        List.find_map
          (function
            | Journal.Submitted { spec; _ } ->
                Option.bind (Json.mem "file" spec) Json.str
            | _ -> None)
          records
      with
      | None -> Alcotest.fail "no submitted record with a file"
      | Some path ->
          let reloaded = ok_or_fail "reload" (Loader.load_result path) in
          Alcotest.(check string) "identical content" (Loader.digest inst)
            (Loader.digest reloaded))

(* ------------------------------------------------------------------ *)
(* Solver-level resume: certified continuation semantics *)

let test_solver_resume_continues () =
  let inst, known_opt = proj () in
  let states = ref [] in
  let full =
    Solver.solve_packing ~eps
      ~checkpoint:(fun s -> states := s :: !states)
      inst
  in
  Alcotest.(check int) "one checkpoint per call" full.Solver.decision_calls
    (List.length !states);
  (* Resume from the state after the first call. *)
  let mid = List.nth !states (List.length !states - 1) in
  Alcotest.(check int) "first checkpoint is call 1" 1 mid.Solver.calls_done;
  let resumed = Solver.solve_packing ~eps ~resume:mid inst in
  let tol = 1e-6 in
  Alcotest.(check bool) "resumed lower bound valid" true
    (resumed.Solver.value <= known_opt +. tol);
  Alcotest.(check bool) "resumed bracket closed" true
    (resumed.Solver.upper_bound
    <= ((1.0 +. eps) *. resumed.Solver.value) +. tol);
  Alcotest.(check bool) "counters continue" true
    (resumed.Solver.decision_calls > mid.Solver.calls_done);
  Alcotest.(check bool) "resume does not repeat finished calls" true
    (resumed.Solver.decision_calls <= full.Solver.decision_calls);
  (* A lying incumbent is re-verified, never trusted. *)
  let lying =
    {
      mid with
      Solver.incumbent = Array.map (fun v -> v *. 100.0) mid.Solver.incumbent;
      incumbent_value = 1e9;
    }
  in
  let safe = Solver.solve_packing ~eps ~resume:lying inst in
  Alcotest.(check bool) "lying incumbent cannot break soundness" true
    (safe.Solver.value <= known_opt +. tol)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "store"
    [
      ( "checksum",
        [ Alcotest.test_case "known values" `Quick test_checksum_known_values ]
      );
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "truncation" `Quick
            test_snapshot_rejects_truncation;
          Alcotest.test_case "bit flips" `Quick test_snapshot_rejects_bit_flips;
          Alcotest.test_case "wrong version" `Quick
            test_snapshot_rejects_wrong_version;
          Alcotest.test_case "trailing garbage" `Quick
            test_snapshot_rejects_trailing_garbage;
          Alcotest.test_case "save/load" `Quick test_snapshot_save_load;
        ] );
      ( "atomic",
        [
          Alcotest.test_case "kill points" `Quick test_atomic_write_kill_points;
        ] );
      ( "journal",
        [
          Alcotest.test_case "line roundtrip" `Quick
            test_journal_line_roundtrip;
          Alcotest.test_case "tamper detection" `Quick
            test_journal_rejects_tampering;
          Alcotest.test_case "torn tail replay" `Quick
            test_journal_replay_torn_tail;
        ] );
      ( "store",
        [
          Alcotest.test_case "pending lifecycle" `Quick
            test_store_pending_lifecycle;
          Alcotest.test_case "quarantine listing" `Quick
            test_store_quarantine_listing;
          Alcotest.test_case "snapshot files + tmp sweep" `Quick
            test_store_snapshot_files_and_tmp_sweep;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "crash before write" `Quick
            test_crash_before_write;
          Alcotest.test_case "crash after write" `Quick test_crash_after_write;
          Alcotest.test_case "crash after rename" `Quick
            test_crash_after_rename;
          Alcotest.test_case "crash on first snapshot" `Quick
            test_crash_on_first_snapshot;
          Alcotest.test_case "cancel is resumable" `Quick
            test_cancelled_job_is_resumable;
          Alcotest.test_case "digest mismatch" `Quick
            test_digest_mismatch_rejected;
          Alcotest.test_case "corrupt snapshot" `Quick
            test_corrupt_snapshot_rejected;
          Alcotest.test_case "completed not recovered" `Quick
            test_completed_jobs_not_recovered;
          Alcotest.test_case "inline saved as file" `Quick
            test_inline_instances_journaled_as_files;
        ] );
      ( "solver resume",
        [
          Alcotest.test_case "continues certified" `Quick
            test_solver_resume_continues;
        ] );
      ( "properties",
        List.map
          Qa_harness.to_alcotest
          [ prop_snapshot_roundtrip ] );
    ]
