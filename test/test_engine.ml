(* Tests for the batch engine: JSON codec, scheduler, trace sink, cache,
   job manifests, and the engine itself (scheduling, caching, warm
   starts, cancellation, timeouts, telemetry consistency). *)

open Psdp_prelude
open Psdp_core
open Psdp_instances
open Psdp_engine

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Num 0.0;
      Json.Num (-0.5);
      Json.Num 1e10;
      Json.Num 1234567890123.0;
      Json.Str "";
      Json.Str "a\"b\\c\n\tz";
      Json.Str "caf\xc3\xa9";
      Json.List [];
      Json.List [ Json.Num 1.0; Json.Str "x"; Json.Null ];
      Json.Obj [];
      Json.Obj
        [
          ("k", Json.Num 2.5);
          ("nested", Json.Obj [ ("l", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      Alcotest.(check bool)
        (Printf.sprintf "single line %S" s)
        false
        (String.contains s '\n');
      match Json.parse s with
      | Ok v' ->
          Alcotest.(check string) "roundtrip" s (Json.to_string v')
      | Error e -> Alcotest.failf "parse %S failed: %s" s e)
    samples

let test_json_unicode_escapes () =
  (match Json.parse {|"\u00e9"|} with
  | Ok (Json.Str s) -> Alcotest.(check string) "BMP escape" "\xc3\xa9" s
  | _ -> Alcotest.fail "expected string");
  match Json.parse {|"\ud83d\ude00"|} with
  | Ok (Json.Str s) ->
      Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "expected string"

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "tru"; "{\"a\":}"; "\"\\x\""; "1 2"; "nul"; "[1 2]" ]

let test_json_accessors () =
  let v = Json.parse_exn {|{"a": 3, "b": "s", "c": true, "d": [1], "e": 2.5}|} in
  Alcotest.(check (option int)) "int" (Some 3) (Option.bind (Json.mem "a" v) Json.int);
  Alcotest.(check (option string)) "str" (Some "s")
    (Option.bind (Json.mem "b" v) Json.str);
  Alcotest.(check (option bool)) "bool" (Some true)
    (Option.bind (Json.mem "c" v) Json.bool);
  Alcotest.(check bool) "list" true
    (Option.bind (Json.mem "d" v) Json.list <> None);
  Alcotest.(check (option int)) "non-integer num" None
    (Option.bind (Json.mem "e" v) Json.int);
  Alcotest.(check bool) "missing key" true (Json.mem "zz" v = None)

let test_json_nonfinite_prints_null () =
  Alcotest.(check string) "nan" "null" (Json.to_string (Json.Num Float.nan));
  Alcotest.(check string) "inf" "null"
    (Json.to_string (Json.Num Float.infinity))

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let test_scheduler_priority_and_fifo () =
  let q = Scheduler.create () in
  Scheduler.push q ~priority:0 "a";
  Scheduler.push q ~priority:5 "b";
  Scheduler.push q ~priority:0 "c";
  Scheduler.push q ~priority:5 "d";
  Alcotest.(check int) "length" 4 (Scheduler.length q);
  let order = List.init 4 (fun _ -> Option.get (Scheduler.pop q)) in
  Alcotest.(check (list string)) "priority then FIFO" [ "b"; "d"; "a"; "c" ]
    order

let test_scheduler_close_drains () =
  let q = Scheduler.create () in
  Scheduler.push q ~priority:0 1;
  Scheduler.push q ~priority:0 2;
  Scheduler.close q;
  Scheduler.close q;
  (* idempotent *)
  Alcotest.(check (option int)) "first survives close" (Some 1)
    (Scheduler.pop q);
  Alcotest.(check (option int)) "second survives close" (Some 2)
    (Scheduler.pop q);
  Alcotest.(check (option int)) "then exhausted" None (Scheduler.pop q);
  Alcotest.check_raises "push after close"
    (Invalid_argument "Scheduler.push: queue is closed") (fun () ->
      Scheduler.push q ~priority:0 3)

let test_scheduler_blocking_pop () =
  let q = Scheduler.create () in
  let d = Domain.spawn (fun () -> Scheduler.pop q) in
  Unix.sleepf 0.02;
  Scheduler.push q ~priority:0 "late";
  Alcotest.(check (option string)) "blocked pop wakes" (Some "late")
    (Domain.join d)

(* ------------------------------------------------------------------ *)
(* Trace *)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let field k v = Option.bind (Json.mem k v) Json.num
let kind_of v = Option.bind (Json.mem "kind" v) Json.str

let assert_monotone events =
  let last = ref Float.neg_infinity in
  List.iter
    (fun e ->
      match field "t" e with
      | Some t ->
          if t < !last then Alcotest.failf "timestamp went backwards: %g" t;
          last := t
      | None -> Alcotest.fail "event without t")
    events

let test_trace_memory_sink () =
  let sink = Trace.memory () in
  Trace.emit sink ~kind:"alpha" [ ("n", Json.Num 1.0) ];
  Trace.emit sink ~job:"j1" ~kind:"beta" [];
  Trace.emit sink ~kind:"gamma" [];
  let events = Trace.events sink in
  Alcotest.(check int) "three events" 3 (List.length events);
  Alcotest.(check (list string)) "oldest first"
    [ "alpha"; "beta"; "gamma" ]
    (List.filter_map kind_of events);
  Alcotest.(check (option string)) "job field" (Some "j1")
    (Option.bind (Json.mem "job" (List.nth events 1)) Json.str);
  assert_monotone events;
  Alcotest.(check bool) "elapsed >= last stamp" true
    (Trace.elapsed sink >= Option.get (field "t" (List.nth events 2)))

let test_trace_null_and_channel_buffering () =
  Trace.emit Trace.null ~kind:"ignored" [];
  Alcotest.(check int) "null keeps nothing" 0
    (List.length (Trace.events Trace.null));
  let path = Filename.temp_file "psdp_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let sink = Trace.channel oc in
      Trace.emit sink ~job:"j" ~kind:"k" [ ("v", Json.Num 2.0) ];
      Trace.emit sink ~kind:"k2" [];
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "one line per event" 2 (List.length lines);
      List.iter
        (fun l ->
          match Json.parse l with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "bad JSONL line %S: %s" l e)
        lines)

let test_trace_concurrent_emission () =
  let sink = Trace.memory () in
  let emitter tag =
    Domain.spawn (fun () ->
        for i = 1 to 100 do
          Trace.emit sink ~job:tag ~kind:"tick"
            [ ("i", Json.Num (float_of_int i)) ]
        done)
  in
  let a = emitter "a" and b = emitter "b" in
  Domain.join a;
  Domain.join b;
  let events = Trace.events sink in
  Alcotest.(check int) "all events kept" 200 (List.length events);
  assert_monotone events

(* ------------------------------------------------------------------ *)
(* Cache *)

let entry ?(digest = "d0") ?(eps = 0.5) ?(backend = "exact")
    ?(mode = "adaptive:10") ?(value = 2.0) ?(upper = 2.5) () =
  {
    Cache.digest;
    eps;
    backend;
    mode;
    value;
    upper_bound = upper;
    x = [| 1.0; 1.0 |];
    decision_calls = 3;
    iterations = 42;
  }

let test_cache_find_exact () =
  let c = Cache.create () in
  Cache.store c (entry ());
  Cache.store c (entry ~eps:0.3 ~value:2.2 ~upper:2.4 ());
  Alcotest.(check int) "size" 2 (Cache.size c);
  (match Cache.find c ~digest:"d0" ~eps:0.3 ~backend:"exact" ~mode:"adaptive:10" with
  | Some e -> Alcotest.(check (float 0.0)) "exact eps match" 2.2 e.Cache.value
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check bool) "other digest misses" true
    (Cache.find c ~digest:"zz" ~eps:0.5 ~backend:"exact" ~mode:"adaptive:10"
    = None);
  Alcotest.(check bool) "other backend misses" true
    (Cache.find c ~digest:"d0" ~eps:0.5 ~backend:"sketched:1:auto"
       ~mode:"adaptive:10"
    = None)

let test_cache_find_warm_prefers_tight_upper () =
  let c = Cache.create () in
  Cache.store c (entry ~eps:0.5 ~value:2.0 ~upper:3.0 ());
  Cache.store c (entry ~eps:0.3 ~value:2.1 ~upper:2.4 ());
  Cache.store c (entry ~eps:0.4 ~value:2.05 ~upper:2.8 ());
  match Cache.find_warm c ~digest:"d0" ~backend:"exact" ~mode:"adaptive:10" with
  | Some e -> Alcotest.(check (float 0.0)) "smallest upper" 2.4 e.Cache.upper_bound
  | None -> Alcotest.fail "expected warm entry"

let test_cache_persist_roundtrip () =
  let path = Filename.temp_file "psdp_cache" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let c = Cache.create ~persist:path () in
      Cache.store c (entry ());
      Cache.store c (entry ~digest:"d1" ~value:7.0 ~upper:7.5 ());
      Cache.close c;
      Cache.close c;
      (* corruption between runs must not poison the reload *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "this is not json\n{\"digest\": 1}\n";
      close_out oc;
      let c2 = Cache.create ~persist:path () in
      Alcotest.(check int) "reloaded valid entries" 2 (Cache.size c2);
      (match
         Cache.find c2 ~digest:"d1" ~eps:0.5 ~backend:"exact"
           ~mode:"adaptive:10"
       with
      | Some e ->
          Alcotest.(check (float 0.0)) "value survives" 7.0 e.Cache.value;
          Alcotest.(check int) "calls survive" 3 e.Cache.decision_calls;
          Alcotest.(check int) "x length survives" 2 (Array.length e.Cache.x)
      | None -> Alcotest.fail "expected reloaded entry");
      Cache.close c2)

let test_cache_entry_json_roundtrip () =
  let e = entry ~digest:"abc" ~eps:0.25 ~value:1.5 ~upper:1.8 () in
  match Cache.entry_of_json (Cache.entry_to_json e) with
  | Ok e' ->
      Alcotest.(check string) "digest" e.Cache.digest e'.Cache.digest;
      Alcotest.(check (float 0.0)) "eps" e.Cache.eps e'.Cache.eps;
      Alcotest.(check (float 0.0)) "value" e.Cache.value e'.Cache.value;
      Alcotest.(check (float 0.0)) "upper" e.Cache.upper_bound e'.Cache.upper_bound;
      Alcotest.(check bool) "x" true (e.Cache.x = e'.Cache.x)
  | Error msg -> Alcotest.failf "roundtrip failed: %s" msg

(* ------------------------------------------------------------------ *)
(* Job specs and manifests *)

let test_spec_of_json () =
  let ok s =
    match Job.spec_of_json (Json.parse_exn s) with
    | Ok spec -> spec
    | Error e -> Alcotest.failf "spec %S rejected: %s" s e
  in
  let spec =
    ok {|{"id":"j1","op":"solve","file":"a.inst","eps":0.2,"priority":3}|}
  in
  Alcotest.(check string) "id" "j1" spec.Job.id;
  Alcotest.(check (float 0.0)) "eps" 0.2 spec.Job.eps;
  Alcotest.(check int) "priority" 3 spec.Job.priority;
  (match spec.Job.op with
  | Job.Solve -> ()
  | _ -> Alcotest.fail "expected solve");
  let d = ok {|{"op":"decide","file":"a.inst","threshold":2.5,"timeout":1.5}|} in
  (match d.Job.op with
  | Job.Decide { threshold } ->
      Alcotest.(check (float 0.0)) "threshold" 2.5 threshold
  | _ -> Alcotest.fail "expected decide");
  Alcotest.(check (option (float 0.0))) "timeout" (Some 1.5) d.Job.timeout;
  let s =
    ok {|{"op":"solve","file":"a.inst","backend":"sketched","seed":9,"unknown":0}|}
  in
  Alcotest.(check string) "sketched key" "sketched:9:auto"
    (Job.backend_key s.Job.backend);
  List.iter
    (fun bad ->
      match Job.spec_of_json (Json.parse_exn bad) with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [
      {|{"op":"solve"}|};
      (* no file *)
      {|{"op":"decide","file":"a.inst"}|};
      (* no threshold *)
      {|{"op":"solve","file":"a.inst","eps":1.5}|};
      {|{"op":"solve","file":"a.inst","eps":0}|};
      {|{"op":"frobnicate","file":"a.inst"}|};
      {|[1,2]|};
    ]

let test_manifest_parsing () =
  let text =
    "# a comment\n\n\
     {\"id\":\"a\",\"op\":\"solve\",\"file\":\"x.inst\"}\n\
     {\"op\":\"decide\",\"file\":\"/abs/y.inst\",\"threshold\":1.0}\n"
  in
  (match Job.parse_manifest ~dir:"/data" text with
  | Ok [ a; b ] ->
      Alcotest.(check string) "explicit id kept" "a" a.Job.id;
      Alcotest.(check string) "line-numbered id" "job-4" b.Job.id;
      (match (a.Job.source, b.Job.source) with
      | Job.File pa, Job.File pb ->
          Alcotest.(check string) "relative resolved" "/data/x.inst" pa;
          Alcotest.(check string) "absolute untouched" "/abs/y.inst" pb
      | _ -> Alcotest.fail "expected file sources")
  | Ok l -> Alcotest.failf "expected 2 specs, got %d" (List.length l)
  | Error e -> Alcotest.failf "manifest rejected: %s" e);
  match Job.parse_manifest "{\"op\":\"solve\",\"file\":\"x\"}\nnot json\n" with
  | Ok _ -> Alcotest.fail "accepted malformed line"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the line: %s" e)
        true
        (contains_substring e "line 2")

let test_result_to_json_statuses () =
  let mk outcome = { Job.id = "j"; outcome; elapsed = 0.1 } in
  let status r =
    Option.get (Option.bind (Json.mem "status" (Job.result_to_json r)) Json.str)
  in
  Alcotest.(check string) "ok" "ok"
    (status
       (mk
          (Job.Solved
             {
               value = 1.0;
               upper_bound = 1.1;
               decision_calls = 2;
               iterations = 10;
               cache = Job.Miss;
               certified = true;
             })));
  Alcotest.(check string) "rejected" "rejected"
    (status (mk (Job.Decided { accepted = false; bound = 2.0; iterations = 5 })));
  Alcotest.(check string) "failed" "failed" (status (mk (Job.Failed "x")));
  Alcotest.(check string) "cancelled" "cancelled" (status (mk Job.Cancelled));
  Alcotest.(check string) "timeout" "timeout" (status (mk Job.Timed_out))

(* ------------------------------------------------------------------ *)
(* Engine *)

(* Small known instances. All engine tests run on [Pool.sequential] with
   one runner domain: on top of making them fast on small machines, that
   makes execution order (priority, then FIFO) deterministic. *)

let proj () =
  fst (Known_opt.orthogonal_projectors ~rng:(Rng.create 7) ~dim:8 ~n:3)

let diag () = fst (Diagonal.scaled_identities [| 0.5; 1.0; 2.0 |] ~dim:5)
let rank1 () = fst (Known_opt.rank_one_orthonormal ~rng:(Rng.create 23) ~dim:7 ~n:5)
let rand () = Random_psd.factored ~rng:(Rng.create 3) ~dim:6 ~n:4 ()
let cyc () = Graph_packing.edge_packing (Graph.cycle 5)

let solve ?id ?eps ?mode ?priority ?timeout inst =
  Job.solve_spec ?id ?eps ?mode ?priority ?timeout (Job.Inline inst)

(* A copy of [Job.Solved]'s inline record that can leave the match. *)
type solve_facts = {
  value : float;
  upper : float;
  calls : int;
  iters : int;
  cache : Job.cache_status;
  certified : bool;
}

let solved r =
  match r.Job.outcome with
  | Job.Solved
      { value; upper_bound; decision_calls; iterations; cache; certified } ->
      { value; upper = upper_bound; calls = decision_calls;
        iters = iterations; cache; certified }
  | o ->
      Alcotest.failf "job %s: expected Solved, got %s" r.Job.id
        (match o with
        | Job.Decided _ -> "Decided"
        | Job.Failed m -> "Failed: " ^ m
        | Job.Cancelled -> "Cancelled"
        | Job.Timed_out -> "Timed_out"
        | Job.Solved _ -> assert false)

let str k v = Option.bind (Json.mem k v) Json.str

let count_events events ~kind ~job =
  List.length
    (List.filter (fun e -> kind_of e = Some kind && str "job" e = Some job) events)

let spans_named events name ~job =
  List.filter
    (fun e ->
      kind_of e = Some "span" && str "name" e = Some name
      && str "job" e = Some job)
    events

(* Every settled job closes with exactly one exec span carrying its
   status; solves carry their counters too. *)
let check_exec_spans events (results : Job.result list) =
  List.iter
    (fun (r : Job.result) ->
      match spans_named events "exec" ~job:r.Job.id with
      | [ e ] -> (
          Alcotest.(check (option string))
            (r.Job.id ^ " exec status")
            (Some (Job.status_string r.Job.outcome))
            (str "status" e);
          match r.Job.outcome with
          | Job.Solved { decision_calls; _ } ->
              Alcotest.(check (option (float 0.0)))
                (r.Job.id ^ " exec calls")
                (Some (float_of_int decision_calls))
                (field "calls" e)
          | _ -> ())
      | l ->
          Alcotest.failf "%s: expected one exec span, got %d" r.Job.id
            (List.length l))
    results

(* The acceptance scenario: a 20-job mixed batch through one engine —
   repeats answered from cache with identical numbers, ε-refinements
   warm-started, decisions both ways, one failure — with a telemetry
   stream whose per-job events match the per-job counters. *)
let test_engine_mixed_batch () =
  let trace = Trace.memory () in
  let eng =
    Engine.create ~pool:Psdp_parallel.Pool.sequential ~max_in_flight:1 ~trace
      ()
  in
  let specs =
    [
      solve ~id:"proj-a" ~eps:0.5 (proj ());
      solve ~id:"diag-a" ~eps:0.5 (diag ());
      solve ~id:"rank-a" ~eps:0.5 (rank1 ());
      solve ~id:"rand-a" ~eps:0.5 (rand ());
      solve ~id:"cyc-a" ~eps:0.5 (cyc ());
      (* exact repeats: must be cache hits *)
      solve ~id:"proj-b" ~eps:0.5 (proj ());
      solve ~id:"diag-b" ~eps:0.5 (diag ());
      solve ~id:"rank-b" ~eps:0.5 (rank1 ());
      solve ~id:"rand-b" ~eps:0.5 (rand ());
      solve ~id:"cyc-b" ~eps:0.5 (cyc ());
      solve ~id:"proj-c" ~eps:0.5 (proj ());
      solve ~id:"diag-c" ~eps:0.5 (diag ());
      solve ~id:"rank-c" ~eps:0.5 (rank1 ());
      solve ~id:"rand-c" ~eps:0.5 (rand ());
      (* ε-refinements: must warm-start from the coarse entries *)
      solve ~id:"proj-fine" ~eps:0.3 (proj ());
      solve ~id:"diag-fine" ~eps:0.3 (diag ());
      (* decisions, one accepted and one threshold-rejected *)
      Job.decide_spec ~id:"dec-acc" ~eps:0.3 ~threshold:0.5
        (Job.Inline (cyc ()));
      Job.decide_spec ~id:"dec-rej" ~eps:0.3 ~threshold:100.0
        (Job.Inline (cyc ()));
      solve ~id:"bf" ~eps:0.5
        (Beamforming.instance ~rng:(Rng.create 41) ~antennas:6 ~users:4 ());
      Job.solve_spec ~id:"missing" (Job.File "/nonexistent/psdp.inst");
    ]
  in
  Alcotest.(check int) "twenty jobs" 20 (List.length specs);
  let handles = List.map (Engine.submit eng) specs in
  let results = List.map (Engine.await eng) handles in
  Engine.shutdown eng;
  let find id = List.find (fun r -> r.Job.id = id) results in
  (* Cache hits: identical numbers, no solver work. *)
  List.iter
    (fun base ->
      let orig = solved (find (base ^ "-a")) in
      Alcotest.(check bool) (base ^ " original certified") true orig.certified;
      List.iter
        (fun suffix ->
          let rep = solved (find (base ^ suffix)) in
          Alcotest.(check bool) (base ^ suffix ^ " is a hit") true
            (rep.cache = Job.Hit);
          Alcotest.(check bool)
            (base ^ suffix ^ " identical value")
            true
            (Int64.bits_of_float rep.value
            = Int64.bits_of_float orig.value);
          Alcotest.(check bool)
            (base ^ suffix ^ " identical upper")
            true
            (Int64.bits_of_float rep.upper
            = Int64.bits_of_float orig.upper);
          Alcotest.(check int) (base ^ suffix ^ " no calls") 0
            rep.calls;
          Alcotest.(check int) (base ^ suffix ^ " no iters") 0
            rep.iters)
        (if base = "proj" || base = "diag" || base = "rank" || base = "rand"
         then [ "-b"; "-c" ]
         else [ "-b" ]))
    [ "proj"; "diag"; "rank"; "rand"; "cyc" ];
  (* Refinements warm-start and still certify a (1+ε) bracket. *)
  List.iter
    (fun id ->
      let s = solved (find id) in
      Alcotest.(check bool) (id ^ " warm") true (s.cache = Job.Warm);
      Alcotest.(check bool) (id ^ " certified") true s.certified;
      Alcotest.(check bool) (id ^ " bracket") true
        (s.value <= s.upper && s.upper <= (1.0 +. 0.3) *. s.value +. 1e-6))
    [ "proj-fine"; "diag-fine" ];
  (match (find "dec-acc").Job.outcome with
  | Job.Decided d -> Alcotest.(check bool) "low threshold accepted" true d.accepted
  | _ -> Alcotest.fail "dec-acc: expected Decided");
  (match (find "dec-rej").Job.outcome with
  | Job.Decided d ->
      Alcotest.(check bool) "high threshold rejected" false d.accepted
  | _ -> Alcotest.fail "dec-rej: expected Decided");
  (match (find "missing").Job.outcome with
  | Job.Failed _ -> ()
  | _ -> Alcotest.fail "missing file: expected Failed");
  (* Telemetry: one queue wait and one exec span per job, counters
     consistent, stamps monotone, engine lifecycle bracketed. *)
  let events = Trace.events trace in
  assert_monotone events;
  check_exec_spans events results;
  List.iter
    (fun (spec : Job.spec) ->
      let id = spec.Job.id in
      Alcotest.(check int)
        (id ^ " has one queue_wait span")
        1
        (List.length (spans_named events "queue_wait" ~job:id));
      match (find id).Job.outcome with
      | Job.Solved { decision_calls; _ } ->
          Alcotest.(check int)
            (Printf.sprintf "%s decision_call events = calls" id)
            decision_calls
            (count_events events ~kind:"decision_call" ~job:id)
      | _ -> ())
    specs;
  List.iter
    (fun kind ->
      Alcotest.(check int) ("one " ^ kind) 1
        (List.length (List.filter (fun e -> kind_of e = Some kind) events)))
    [ "engine_started"; "engine_stopped" ];
  (* [psdp trace summarize] reads the same stream through the span
     assembler: one row per job, in start order (here, with one FIFO
     runner, submission order), with the result's status and counters,
     and the profiler spans (no --metrics needed) as attribution paths
     under exec. *)
  let summary = Psdp_obs.Trace_summary.of_events events in
  Alcotest.(check (list string))
    "summary rows in start order"
    (List.map (fun (s : Job.spec) -> s.Job.id) specs)
    (List.map
       (fun (j : Psdp_obs.Trace_summary.job_row) -> j.job)
       summary.Psdp_obs.Trace_summary.jobs);
  List.iter
    (fun (j : Psdp_obs.Trace_summary.job_row) ->
      let r = find j.job in
      Alcotest.(check string) (j.job ^ " summary status")
        (Job.status_string r.Job.outcome) j.status;
      Alcotest.(check (float 0.0)) (j.job ^ " summary run") r.Job.elapsed j.run;
      match r.Job.outcome with
      | Job.Solved s ->
          Alcotest.(check int) (j.job ^ " summary calls") s.decision_calls j.calls;
          Alcotest.(check int) (j.job ^ " summary iters") s.iterations j.iters
      | _ -> ())
    summary.Psdp_obs.Trace_summary.jobs;
  Alcotest.(check bool) "attribution reaches the iterations" true
    (List.exists
       (fun (a : Psdp_obs.Trace_summary.attribution_row) ->
         a.path = "solve/decision_call/iteration")
       summary.Psdp_obs.Trace_summary.attribution);
  let tally status =
    List.length
      (List.filter
         (fun (r : Job.result) ->
           match r.Job.outcome with
           | Job.Solved s -> Job.cache_status_string s.cache = status
           | _ -> false)
         results)
  in
  Alcotest.(check (list (pair string int)))
    "cache tally matches the results"
    [ ("hit", tally "hit"); ("miss", tally "miss"); ("warm", tally "warm") ]
    summary.Psdp_obs.Trace_summary.cache

(* The cache's point, measured end to end: refining ε through the engine
   must cost fewer decision calls than the same fine solve from cold. *)
let test_engine_warm_start_saves_calls () =
  let inst = proj () in
  let cold = Solver.solve_packing ~eps:0.25 inst in
  Engine.with_engine ~pool:Psdp_parallel.Pool.sequential ~max_in_flight:1
    (fun eng ->
      let coarse = Engine.await eng (Engine.submit eng (solve ~eps:0.5 inst)) in
      Alcotest.(check bool) "coarse is a miss" true
        ((solved coarse).cache = Job.Miss);
      let fine = solved (Engine.await eng (Engine.submit eng (solve ~eps:0.25 inst))) in
      Alcotest.(check bool) "fine is warm" true (fine.cache = Job.Warm);
      Alcotest.(check bool) "fine certified" true fine.certified;
      if fine.calls >= cold.Solver.decision_calls then
        Alcotest.failf "warm start did not save calls: warm %d, cold %d"
          fine.calls cold.Solver.decision_calls)

let test_engine_priority_order () =
  let order = ref [] in
  let mu = Mutex.create () in
  let on_complete r =
    Mutex.lock mu;
    order := r.Job.id :: !order;
    Mutex.unlock mu
  in
  let eng =
    Engine.create ~pool:Psdp_parallel.Pool.sequential ~max_in_flight:1
      ~paused:true ~on_complete ()
  in
  List.iter
    (fun h -> ignore (Engine.submit eng h))
    [
      solve ~id:"low1" ~eps:0.5 ~priority:0 (diag ());
      solve ~id:"high" ~eps:0.5 ~priority:10 (diag ());
      solve ~id:"low2" ~eps:0.5 ~priority:0 (diag ());
    ];
  Engine.resume eng;
  Engine.shutdown eng;
  Alcotest.(check (list string)) "priority, then FIFO"
    [ "high"; "low1"; "low2" ]
    (List.rev !order)

let test_engine_cancel_pending () =
  let eng =
    Engine.create ~pool:Psdp_parallel.Pool.sequential ~max_in_flight:1
      ~paused:true ()
  in
  let keep = Engine.submit eng (solve ~id:"keep" ~eps:0.5 (diag ())) in
  let doomed = Engine.submit eng (solve ~id:"doomed" ~eps:0.5 (proj ())) in
  Alcotest.(check bool) "cancel accepted" true (Engine.cancel eng doomed);
  Engine.resume eng;
  let kept = Engine.await eng keep in
  let dropped = Engine.await eng doomed in
  Engine.shutdown eng;
  Alcotest.(check bool) "kept job ran" true
    (match kept.Job.outcome with Job.Solved _ -> true | _ -> false);
  Alcotest.(check bool) "doomed job cancelled without running" true
    (dropped.Job.outcome = Job.Cancelled);
  Alcotest.(check bool) "cancel after completion refused" false
    (Engine.cancel eng keep)

(* A Faithful-mode decide runs its full iteration budget (no adaptive
   early exit) — seconds of work, a wide window to interrupt. *)
let slow_spec ?timeout id =
  (* ~1s of Faithful iterations on a 1-core machine: R grows as 1/ε². *)
  let inst = Random_psd.factored ~rng:(Rng.create 3) ~dim:16 ~n:8 () in
  Job.decide_spec ~id ~eps:0.05 ~mode:Decision.Faithful ?timeout ~threshold:1.0
    (Job.Inline inst)

let test_engine_cancel_running () =
  Engine.with_engine ~pool:Psdp_parallel.Pool.sequential ~max_in_flight:1
    (fun eng ->
      let h = Engine.submit eng (slow_spec "slow") in
      Unix.sleepf 0.15;
      Alcotest.(check bool) "peek: still running" true (Engine.peek eng h = None);
      Alcotest.(check bool) "cancel accepted" true (Engine.cancel eng h);
      let r = Engine.await eng h in
      Alcotest.(check bool) "aborted mid-solve" true
        (r.Job.outcome = Job.Cancelled))

let test_engine_timeout () =
  Engine.with_engine ~pool:Psdp_parallel.Pool.sequential ~max_in_flight:1
    (fun eng ->
      let r = Engine.await eng (Engine.submit eng (slow_spec ~timeout:0.05 "t")) in
      Alcotest.(check bool) "timed out" true (r.Job.outcome = Job.Timed_out);
      Alcotest.(check bool) "elapsed past deadline" true (r.Job.elapsed >= 0.05))

let test_engine_submit_after_shutdown () =
  let eng = Engine.create ~pool:Psdp_parallel.Pool.sequential () in
  Engine.shutdown eng;
  Engine.shutdown eng;
  (* idempotent *)
  Alcotest.check_raises "submit refused"
    (Invalid_argument "Engine.submit: engine is shut down") (fun () ->
      ignore (Engine.submit eng (solve ~eps:0.5 (diag ()))))

let test_engine_auto_ids () =
  Engine.with_engine ~pool:Psdp_parallel.Pool.sequential (fun eng ->
      let h1 = Engine.submit eng (solve ~eps:0.5 (diag ())) in
      let h2 = Engine.submit eng (solve ~eps:0.5 (diag ())) in
      Alcotest.(check bool) "distinct assigned ids" true
        (Engine.job_id h1 <> Engine.job_id h2);
      Alcotest.(check bool) "job- prefix" true
        (String.length (Engine.job_id h1) > 4
        && String.sub (Engine.job_id h1) 0 4 = "job-"))

(* ------------------------------------------------------------------ *)
(* One span stream: each duration is a span, never also a point event *)

(* Event kinds that only repeated a span's start, end or payload. *)
let retired_kinds =
  [
    "job_submitted"; "job_started"; "job_finished"; "profile"; "iter_batch";
    "cache"; "cert_verified"; "serve_admitted"; "serve_completed";
    "eps_degraded"; "job_accepted"; "job_assigned"; "job_completed";
    "job_rerouted";
  ]

(* A traced serve run (with degradation and a shed), a batch with one
   job cancelled before it ran, and a runner crash: the sink sees only
   spans and the point kinds trace.mli lists, every settled job closes
   with one exec span, every admitted request with one request span. *)
let test_span_stream () =
  let module Serve = Psdp_serve.Serve in
  let module Failpoint = Psdp_fault.Failpoint in
  let serve_trace = Trace.memory () in
  let responses = ref [] and mu = Mutex.create () in
  let serve =
    Serve.create
      {
        Serve.queue_cap = 3;
        default_deadline = None;
        degrade =
          Result.get_ok (Psdp_fault.Degrade.make ~cap:0.5 [ (2, 2.0) ]);
      }
      ~make_engine:(fun ~on_complete ->
        Engine.create ~pool:Psdp_parallel.Pool.sequential ~max_in_flight:1
          ~paused:true ~trace:serve_trace ~on_complete ())
      ~on_response:(fun r ->
        Mutex.lock mu;
        responses := r :: !responses;
        Mutex.unlock mu)
      ()
  in
  List.iter
    (fun id -> Serve.submit serve (solve ~id ~eps:0.2 (diag ())))
    [ "r1"; "r2"; "r3"; "r4" ];
  Engine.resume (Serve.engine serve);
  Serve.shutdown serve;
  let serve_events = Trace.events serve_trace in
  let admitted =
    List.filter_map
      (fun (r : Serve.response) ->
        match r.Serve.outcome with
        | Serve.Done result -> Some (r, result)
        | Serve.Rejected _ -> None)
      !responses
  in
  Alcotest.(check int) "three admitted, one shed" 3 (List.length admitted);
  check_exec_spans serve_events (List.map snd admitted);
  List.iter
    (fun ((r : Serve.response), _) ->
      match spans_named serve_events "request" ~job:r.Serve.id with
      | [ e ] ->
          Alcotest.(check (option (float 0.0)))
            (r.Serve.id ^ " request span is the latency")
            (Some r.Serve.latency) (field "dur" e);
          Alcotest.(check (option (float 0.0)))
            (r.Serve.id ^ " served eps") (Some r.Serve.served_eps)
            (field "served_eps" e);
          Alcotest.(check (option (float 0.0)))
            (r.Serve.id ^ " degrade level")
            (Some (float_of_int r.Serve.degrade_level))
            (field "degrade_level" e)
      | l ->
          Alcotest.failf "%s: expected one request span, got %d" r.Serve.id
            (List.length l))
    admitted;
  (* [psdp slo report] samples exactly those latencies. *)
  let report =
    Psdp_obs.Slo.report_of_events
      (Psdp_obs.Slo.make_target ~objective:0.9 ~latency:60.0)
      serve_events
  in
  Alcotest.(check int) "slo samples = admitted requests" 3
    report.Psdp_obs.Slo.r_requests;
  Alcotest.(check (float 0.0)) "slo p50 = median response latency"
    (Stats.quantile
       (Array.of_list
          (List.map (fun ((r : Serve.response), _) -> r.Serve.latency) admitted))
       0.5)
    report.Psdp_obs.Slo.r_p50;
  (* A batch with one job cancelled before it ran. *)
  let batch_trace = Trace.memory () in
  let eng =
    Engine.create ~pool:Psdp_parallel.Pool.sequential ~max_in_flight:1
      ~paused:true ~trace:batch_trace ()
  in
  let keep = Engine.submit eng (solve ~id:"keep" ~eps:0.5 (diag ())) in
  let doomed = Engine.submit eng (solve ~id:"doomed" ~eps:0.5 (proj ())) in
  ignore (Engine.cancel eng doomed);
  Engine.resume eng;
  let batch_results = List.map (Engine.await eng) [ keep; doomed ] in
  Engine.shutdown eng;
  Alcotest.(check bool) "doomed cancelled" true
    ((List.nth batch_results 1).Job.outcome = Job.Cancelled);
  check_exec_spans (Trace.events batch_trace) batch_results;
  (* A runner crash. *)
  let crash_trace = Trace.memory () in
  let crashed =
    Fun.protect ~finally:Failpoint.reset (fun () ->
        Failpoint.arm "engine.job_attempt" (Failpoint.Crash "runner death");
        Engine.with_engine ~pool:Psdp_parallel.Pool.sequential
          ~max_in_flight:1 ~trace:crash_trace (fun eng ->
            Engine.await eng
              (Engine.submit eng (solve ~id:"crasher" ~eps:0.5 (diag ())))))
  in
  Alcotest.(check string) "crash settles as failed" "failed"
    (Job.status_string crashed.Job.outcome);
  check_exec_spans (Trace.events crash_trace) [ crashed ];
  let kinds =
    List.sort_uniq compare
      (List.filter_map kind_of
         (serve_events @ Trace.events batch_trace @ Trace.events crash_trace))
  in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (k ^ " is a span or a documented point kind")
        true
        (k = "span" || List.mem k Trace.point_kinds);
      Alcotest.(check bool) (k ^ " is not retired") false
        (List.mem k retired_kinds))
    kinds

(* A runner that crashes after real solver work settles with the time
   it ran, and its exec span lasts exactly that long: the job span's
   time stays attributed. *)
let test_crash_keeps_run_time () =
  let module Failpoint = Psdp_fault.Failpoint in
  let trace = Trace.memory () in
  let crashed =
    Fun.protect ~finally:Failpoint.reset (fun () ->
        Failpoint.arm ~trigger:(Failpoint.Nth 300) "evaluator.dots.exact"
          (Failpoint.Crash "runner death");
        Engine.with_engine ~pool:Psdp_parallel.Pool.sequential
          ~max_in_flight:1 ~trace (fun eng ->
            Engine.await eng
              (Engine.submit eng (solve ~id:"crasher" ~eps:0.3 (proj ())))))
  in
  (match crashed.Job.outcome with
  | Job.Failed msg when String.starts_with ~prefix:"runner crashed" msg -> ()
  | o -> Alcotest.failf "expected a runner crash, got %s" (Job.status_string o));
  Alcotest.(check bool)
    (Printf.sprintf "elapsed %g s > 0" crashed.Job.elapsed)
    true (crashed.Job.elapsed > 0.0);
  match spans_named (Trace.events trace) "exec" ~job:"crasher" with
  | [ e ] ->
      Alcotest.(check (option (float 0.0)))
        "exec span lasts the run" (Some crashed.Job.elapsed) (field "dur" e)
  | l -> Alcotest.failf "expected one exec span, got %d" (List.length l)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "engine"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "non-finite" `Quick test_json_nonfinite_prints_null;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "priority + FIFO" `Quick
            test_scheduler_priority_and_fifo;
          Alcotest.test_case "close drains" `Quick test_scheduler_close_drains;
          Alcotest.test_case "blocking pop" `Quick test_scheduler_blocking_pop;
        ] );
      ( "trace",
        [
          Alcotest.test_case "memory sink" `Quick test_trace_memory_sink;
          Alcotest.test_case "null and channel" `Quick
            test_trace_null_and_channel_buffering;
          Alcotest.test_case "concurrent emission" `Quick
            test_trace_concurrent_emission;
        ] );
      ( "cache",
        [
          Alcotest.test_case "find exact" `Quick test_cache_find_exact;
          Alcotest.test_case "find_warm tightest" `Quick
            test_cache_find_warm_prefers_tight_upper;
          Alcotest.test_case "persist roundtrip" `Quick
            test_cache_persist_roundtrip;
          Alcotest.test_case "entry json" `Quick test_cache_entry_json_roundtrip;
        ] );
      ( "job",
        [
          Alcotest.test_case "spec decoding" `Quick test_spec_of_json;
          Alcotest.test_case "manifest" `Quick test_manifest_parsing;
          Alcotest.test_case "result statuses" `Quick
            test_result_to_json_statuses;
        ] );
      ( "engine",
        [
          Alcotest.test_case "mixed batch" `Quick test_engine_mixed_batch;
          Alcotest.test_case "warm start saves calls" `Quick
            test_engine_warm_start_saves_calls;
          Alcotest.test_case "priority order" `Quick test_engine_priority_order;
          Alcotest.test_case "cancel pending" `Quick test_engine_cancel_pending;
          Alcotest.test_case "cancel running" `Quick test_engine_cancel_running;
          Alcotest.test_case "timeout" `Quick test_engine_timeout;
          Alcotest.test_case "submit after shutdown" `Quick
            test_engine_submit_after_shutdown;
          Alcotest.test_case "auto ids" `Quick test_engine_auto_ids;
          Alcotest.test_case "one span stream" `Quick test_span_stream;
          Alcotest.test_case "crash keeps run time" `Quick
            test_crash_keeps_run_time;
        ] );
    ]
