(* Tests for the observability layer: metrics registry (counters,
   gauges, log-bucketed histograms, Prometheus rendering), the span
   profiler, trace analytics, the trace event schema, trace flush
   batching, and the cache traffic counters the engine mirrors. *)

open Psdp_prelude
open Psdp_obs
open Psdp_engine

let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Metrics: counters and gauges *)

let test_counter_basics () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg ~help:"test" "test_total" in
  Alcotest.(check int) "starts at 0" 0 (Metrics.counter_value c);
  Metrics.inc c;
  Metrics.add c 4;
  Alcotest.(check int) "inc + add" 5 (Metrics.counter_value c);
  Metrics.record c 3;
  Alcotest.(check int) "record below is a no-op" 5 (Metrics.counter_value c);
  Metrics.record c 11;
  Alcotest.(check int) "record raises to at least" 11 (Metrics.counter_value c);
  (* Same (name, labels) resolves to the same series. *)
  let c' = Metrics.counter reg "test_total" in
  Metrics.inc c';
  Alcotest.(check int) "shared series" 12 (Metrics.counter_value c)

let test_counter_labels () =
  let reg = Metrics.create () in
  let ok = Metrics.counter reg ~labels:[ ("status", "ok") ] "jobs_total" in
  let bad = Metrics.counter reg ~labels:[ ("status", "failed") ] "jobs_total" in
  Metrics.inc ok;
  Metrics.inc ok;
  Metrics.inc bad;
  Alcotest.(check int) "ok series" 2 (Metrics.counter_value ok);
  Alcotest.(check int) "failed series" 1 (Metrics.counter_value bad);
  let txt = Metrics.render reg in
  let has s = contains_substring txt s in
  Alcotest.(check bool) "labeled ok line" true (has {|jobs_total{status="ok"} 2|});
  Alcotest.(check bool)
    "labeled failed line" true
    (has {|jobs_total{status="failed"} 1|})

let test_invalid_registrations () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "fine_name");
  (match Metrics.counter reg "2bad" with
  | _ -> Alcotest.fail "bad metric name accepted"
  | exception Invalid_argument _ -> ());
  ignore (Metrics.gauge reg "some_gauge");
  (match Metrics.counter reg "some_gauge" with
  | _ -> Alcotest.fail "kind clash accepted"
  | exception Invalid_argument _ -> ())

let test_gauge () =
  let reg = Metrics.create () in
  let g = Metrics.gauge reg ~help:"depth" "queue_depth" in
  Metrics.set g 4.0;
  Metrics.set g 2.5;
  Alcotest.(check (float 0.0)) "last write wins" 2.5 (Metrics.gauge_value g)

(* ------------------------------------------------------------------ *)
(* Metrics: histograms *)

let test_histogram_quantiles () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~lo:1.0 ~ratio:2.0 ~buckets:10 "lat_seconds" in
  Alcotest.(check bool)
    "empty quantile is nan" true
    (Float.is_nan (Metrics.quantile h 0.5));
  (* 100 observations of 3.0 land in the (2,4] bucket; the median
     interpolates to its middle. *)
  for _ = 1 to 100 do
    Metrics.observe h 3.0
  done;
  Alcotest.(check int) "count" 100 (Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 300.0 (Metrics.hist_sum h);
  let p50 = Metrics.quantile h 0.5 in
  Alcotest.(check bool)
    "p50 within bucket" true
    (p50 >= 2.0 && p50 <= 4.0);
  Alcotest.(check bool)
    "quantiles are monotone" true
    (Metrics.quantile h 0.9 >= p50);
  (* Observations beyond the last bound are pinned to it (lo·ratio⁹). *)
  let top = Metrics.histogram reg ~lo:1.0 ~ratio:2.0 ~buckets:10 "top_seconds" in
  Metrics.observe top 1e12;
  Alcotest.(check (float 1e-6)) "overflow pinned" 512.0 (Metrics.quantile top 1.0)

let test_histogram_absorb () =
  let reg = Metrics.create () in
  let a = Metrics.histogram reg "a_seconds" in
  let b = Metrics.histogram reg "b_seconds" in
  Metrics.observe a 0.5;
  Metrics.observe b 0.25;
  Metrics.observe b 2.0;
  Metrics.absorb ~into:a b;
  Alcotest.(check int) "absorbed count" 3 (Metrics.hist_count a);
  Alcotest.(check (float 1e-9)) "absorbed sum" 2.75 (Metrics.hist_sum a);
  Alcotest.(check int) "source untouched" 2 (Metrics.hist_count b)

let test_render_exposition () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg ~help:"a counter" "c_total" in
  Metrics.add c 3;
  let h = Metrics.histogram reg ~lo:1.0 ~ratio:2.0 ~buckets:3 "h_seconds" in
  Metrics.observe h 1.5;
  Metrics.observe h 100.0;
  let txt = Metrics.render reg in
  let lines = String.split_on_char '\n' txt in
  let has l = List.mem l lines in
  Alcotest.(check bool) "help line" true (has "# HELP c_total a counter");
  Alcotest.(check bool) "type line" true (has "# TYPE c_total counter");
  Alcotest.(check bool) "counter sample" true (has "c_total 3");
  Alcotest.(check bool)
    "histogram type" true
    (has "# TYPE h_seconds histogram");
  Alcotest.(check bool)
    "cumulative bucket" true
    (has {|h_seconds_bucket{le="2"} 1|});
  Alcotest.(check bool)
    "+Inf bucket counts everything" true
    (has {|h_seconds_bucket{le="+Inf"} 2|});
  Alcotest.(check bool) "count line" true (has "h_seconds_count 2");
  Alcotest.(check bool)
    "ends with newline" true
    (String.length txt > 0 && txt.[String.length txt - 1] = '\n')

(* Prometheus exposition reserves backslash + newline in HELP text and
   backslash + quote + newline in label values; anything unescaped there
   corrupts every line after it. *)
let test_exposition_escaping () =
  let reg = Metrics.create () in
  let c =
    Metrics.counter reg
      ~help:"line one\nline two \\ backslash"
      ~labels:[ ("path", "a\"b\\c\nd") ]
      "esc_total"
  in
  Metrics.inc c;
  let lines = String.split_on_char '\n' (Metrics.render reg) in
  let has l = List.mem l lines in
  Alcotest.(check bool)
    "HELP escapes newline and backslash" true
    (has "# HELP esc_total line one\\nline two \\\\ backslash");
  Alcotest.(check bool)
    "label value escapes quote, backslash and newline" true
    (has {|esc_total{path="a\"b\\c\nd"} 1|})

(* ------------------------------------------------------------------ *)
(* Profiler *)

let test_profiler_disabled_is_free () =
  let d = Profiler.disabled in
  let child = Profiler.enter d "x" in
  Profiler.exit child;
  Profiler.exit d;
  Alcotest.(check int)
    "with_span passes the result through" 7
    (Profiler.with_span d "y" (fun () -> 7))

let test_profiler_taxonomy () =
  let prof = Profiler.create () in
  let solve = Profiler.root prof "solve" in
  for _ = 1 to 2 do
    let dc = Profiler.enter solve "decision_call" in
    for _ = 1 to 3 do
      Profiler.with_span dc "iteration" (fun () -> ignore (Sys.opaque_identity 0))
    done;
    Profiler.exit dc
  done;
  Profiler.exit solve;
  let rows = Profiler.report prof in
  let paths = List.map (fun (r : Profiler.row) -> r.Profiler.path) rows in
  Alcotest.(check (list string))
    "paths sorted, children after parents"
    [ "solve"; "solve/decision_call"; "solve/decision_call/iteration" ]
    paths;
  let row p = List.find (fun (r : Profiler.row) -> r.Profiler.path = p) rows in
  Alcotest.(check int) "one root" 1 (row "solve").Profiler.count;
  Alcotest.(check int) "two calls" 2 (row "solve/decision_call").Profiler.count;
  Alcotest.(check int)
    "six iterations" 6
    (row "solve/decision_call/iteration").Profiler.count;
  List.iter
    (fun (r : Profiler.row) ->
      Alcotest.(check bool)
        (r.Profiler.path ^ ": self <= total")
        true
        (r.Profiler.self <= r.Profiler.total +. 1e-12 && r.Profiler.total >= 0.0))
    rows;
  (* Parent totals dominate their children's. *)
  Alcotest.(check bool)
    "root covers decision calls" true
    ((row "solve").Profiler.total
    >= (row "solve/decision_call").Profiler.total -. 1e-12);
  Alcotest.(check bool)
    "quantile for a recorded path is finite" true
    (Float.is_finite (Profiler.quantile prof "solve" 0.5));
  Alcotest.(check bool)
    "quantile for an unknown path is nan" true
    (Float.is_nan (Profiler.quantile prof "nope" 0.5))

let test_profiler_merge () =
  let shared = Profiler.create () in
  let per_job () =
    let p = Profiler.create () in
    let s = Profiler.root p "solve" in
    Profiler.with_span s "iteration" (fun () -> ());
    Profiler.exit s;
    p
  in
  Profiler.merge ~into:shared (per_job ());
  Profiler.merge ~into:shared (per_job ());
  let rows = Profiler.report shared in
  let row p = List.find (fun (r : Profiler.row) -> r.Profiler.path = p) rows in
  Alcotest.(check int) "merged roots" 2 (row "solve").Profiler.count;
  Alcotest.(check int)
    "merged children" 2
    (row "solve/iteration").Profiler.count

let test_profiler_exports_to_registry () =
  let reg = Metrics.create () in
  let prof = Profiler.create ~registry:reg () in
  let s = Profiler.root prof "solve" in
  Profiler.exit s;
  let txt = Metrics.render reg in
  let has l = List.mem l (String.split_on_char '\n' txt) in
  Alcotest.(check bool)
    "span histogram in the shared snapshot" true
    (has {|psdp_span_seconds_count{path="solve"} 1|})

(* ------------------------------------------------------------------ *)
(* Trace analytics *)

let test_trace_summary_of_events () =
  let ev ?job t kind fields =
    Json.Obj
      ([ ("t", Json.Num t); ("kind", Json.Str kind) ]
      @ (match job with Some j -> [ ("job", Json.Str j) ] | None -> [])
      @ fields)
  in
  (* One job the way the engine traces it: a minted root with the
     queue wait and the exec span under it, the profiler rows under
     exec, decision calls as point events. *)
  let root = Trace_context.mint () in
  let wait = Trace_context.child root and exec = Trace_context.child root in
  let solve = Trace_context.child exec in
  let call = Trace_context.child solve in
  let span t ctx name dur fields =
    ev ~job:"j1" t "span"
      ([
         ("name", Json.Str name);
         ("ctx", Json.Str (Trace_context.to_string ctx));
         ("dur", Json.Num dur);
       ]
      @ fields)
  in
  let events =
    [
      ev 0.0 "engine_started" [];
      span 0.6 wait "queue_wait" 0.5 [];
      ev ~job:"j1" 0.7 "decision_call" [ ("call", Json.Num 1.0) ];
      ev ~job:"j1" 1.2 "decision_call" [ ("call", Json.Num 2.0) ];
      span 1.5 solve "solve" 0.8 [ ("count", Json.Num 1.0) ];
      span 1.5 call "decision_call" 0.6 [ ("count", Json.Num 2.0) ];
      span 1.6 exec "exec" 1.0
        [
          ("status", Json.Str "ok");
          ("calls", Json.Num 2.0);
          ("iters", Json.Num 40.0);
          ("cache", Json.Str "miss");
        ];
      span 1.6 root "job" 1.5 [ ("status", Json.Str "ok") ];
      ev 1.7 "engine_stopped" [];
    ]
  in
  let s = Trace_summary.of_events events in
  Alcotest.(check int) "event count" 9 s.Trace_summary.events;
  Alcotest.(check (float 1e-9)) "span" 1.7 s.Trace_summary.span;
  (match s.Trace_summary.jobs with
  | [ j ] ->
      Alcotest.(check string) "job id" "j1" j.Trace_summary.job;
      Alcotest.(check string) "status" "ok" j.Trace_summary.status;
      Alcotest.(check (float 1e-9)) "queue wait" 0.5 j.Trace_summary.queue_wait;
      Alcotest.(check (float 1e-9)) "run = elapsed" 1.0 j.Trace_summary.run;
      Alcotest.(check int) "calls" 2 j.Trace_summary.calls;
      Alcotest.(check int) "iters" 40 j.Trace_summary.iters
  | l -> Alcotest.failf "expected 1 job, got %d" (List.length l));
  let phase name =
    List.find
      (fun (p : Trace_summary.phase_stat) -> p.Trace_summary.phase = name)
      s.Trace_summary.latencies
  in
  Alcotest.(check int)
    "one queue-wait sample" 1
    (phase "queue_wait").Trace_summary.samples;
  (* Two decision-call gaps: 0.7→1.2 and 1.2→(exec span) 1.6. *)
  Alcotest.(check int)
    "decision-call samples" 2
    (phase "decision_call").Trace_summary.samples;
  Alcotest.(check (float 1e-9))
    "decision-call total" 0.9
    (phase "decision_call").Trace_summary.total;
  (match s.Trace_summary.attribution with
  | [ a; b ] ->
      Alcotest.(check string) "root path" "solve" a.Trace_summary.path;
      Alcotest.(check (float 1e-9)) "root share" 1.0 a.Trace_summary.share;
      Alcotest.(check string)
        "child path" "solve/decision_call" b.Trace_summary.path;
      Alcotest.(check (float 1e-9)) "child share" 0.75 b.Trace_summary.share
  | l -> Alcotest.failf "expected 2 attribution rows, got %d" (List.length l));
  Alcotest.(check (list (pair string int)))
    "cache counts"
    [ ("miss", 1) ]
    s.Trace_summary.cache;
  Alcotest.(check (list (pair string int)))
    "no fault events, no fault counts" []
    s.Trace_summary.faults

let test_trace_summary_fault_counts () =
  let ev t kind fields =
    Json.Obj ([ ("t", Json.Num t); ("kind", Json.Str kind) ] @ fields)
  in
  let events =
    [
      ev 0.0 "engine_started" [];
      ev 0.1 "job_fault" [ ("job", Json.Str "j1"); ("class", Json.Str "transient") ];
      ev 0.2 "job_retry" [ ("job", Json.Str "j1") ];
      ev 0.3 "job_fault" [ ("job", Json.Str "j1"); ("class", Json.Str "transient") ];
      ev 0.4 "job_retry" [ ("job", Json.Str "j1") ];
      ev 0.5 "store_fault" [ ("op", Json.Str "append") ];
      ev 0.6 "breaker_open" [];
      ev 0.7 "runner_restarted" [ ("error", Json.Str "boom") ];
      ev 0.8 "job_quarantined" [ ("job", Json.Str "j2") ];
      ev 0.9 "sketch_resample" [ ("job", Json.Str "j3") ];
    ]
  in
  let s = Trace_summary.of_events events in
  Alcotest.(check (list (pair string int)))
    "fault counts in canonical order"
    [
      ("job_fault", 2); ("job_retry", 2); ("job_quarantined", 1);
      ("store_fault", 1); ("breaker_open", 1); ("runner_restarted", 1);
      ("sketch_resample", 1);
    ]
    s.Trace_summary.faults;
  (* Rendered report includes the faults section. *)
  let text = Format.asprintf "%a" Trace_summary.pp s in
  Alcotest.(check bool) "report has faults line" true
    (contains_substring text "faults:")

(* Operators summarize trace files mid-incident: a torn tail or alien
   line costs a warning, never the summary. *)
let test_trace_summary_lenient () =
  let s =
    Trace_summary.of_lines
      [
        {|{"t":0.0,"kind":"engine_started","pool_size":1}|};
        "{oops";
        "";
        "   ";
        "not json at all";
      ]
  in
  Alcotest.(check int) "parsed events" 1 s.Trace_summary.events;
  Alcotest.(check int) "skipped lines counted" 2 s.Trace_summary.skipped;
  let text = Format.asprintf "%a" Trace_summary.pp s in
  Alcotest.(check bool)
    "report warns about skipped lines" true
    (contains_substring text "unparseable");
  (* A completely empty trace still summarizes (the CLI prints the
     warning and exits 0). *)
  let empty = Trace_summary.of_lines [] in
  Alcotest.(check int) "empty trace: no events" 0 empty.Trace_summary.events;
  Alcotest.(check (float 0.0)) "empty trace: zero span" 0.0
    empty.Trace_summary.span;
  ignore (Format.asprintf "%a" Trace_summary.pp empty)

(* ------------------------------------------------------------------ *)
(* Trace schema: one event of every documented kind round-trips *)

(* One representative emission per shape documented in trace.mli: the
   engine's spans and a sample of the point kinds. *)
let documented_events =
  let span name fields =
    ( Some "j1",
      "span",
      [
        ("name", Json.Str name);
        ("ctx", Json.Str (Trace_context.to_string (Trace_context.mint ())));
        ("dur", Json.Num 0.2);
      ]
      @ fields )
  in
  [
    (None, "engine_started", [ ("pool_size", Json.Num 2.0) ]);
    span "queue_wait" [];
    (Some "j1", "decision_call",
     [ ("call", Json.Num 1.0); ("threshold", Json.Num 0.5) ]);
    span "solve" [ ("count", Json.Num 1.0) ];
    span "exec"
      [ ("status", Json.Str "ok"); ("calls", Json.Num 1.0);
        ("cache", Json.Str "miss"); ("certified", Json.Bool true) ];
    span "request"
      [ ("requested_eps", Json.Num 0.1); ("served_eps", Json.Num 0.2);
        ("degrade_level", Json.Num 1.0) ];
    (None, "engine_stopped", [ ("jobs", Json.Num 1.0) ]);
    (Some "j1", "checkpoint", [ ("call", Json.Num 3.0) ]);
    (None, "recovery_started", [ ("pending", Json.Num 1.0) ]);
    (Some "j1", "job_recovered", [ ("from_call", Json.Num 3.0) ]);
    (Some "j1", "resume", [ ("from_call", Json.Num 3.0) ]);
    (Some "j1", "snapshot_rejected", [ ("reason", Json.Str "checksum") ]);
    (Some "j1", "recovery_skipped", [ ("error", Json.Str "bad spec") ]);
    (None, "journal_torn", [ ("error", Json.Str "truncated") ]);
    (Some "j1", "serve_rejected", [ ("reason", Json.Str "queue_full") ]);
  ]

let check_schema events =
  let last_t = ref Float.neg_infinity in
  List.iteri
    (fun i ev ->
      let job_expected, kind_expected, _ = List.nth documented_events i in
      (match Option.bind (Json.mem "t" ev) Json.num with
      | Some t ->
          Alcotest.(check bool)
            (Printf.sprintf "event %d: non-decreasing stamp" i)
            true (t >= !last_t);
          Alcotest.(check bool)
            (Printf.sprintf "event %d: stamp is finite" i)
            true (Float.is_finite t);
          last_t := t
      | None -> Alcotest.failf "event %d: missing t" i);
      (match Option.bind (Json.mem "kind" ev) Json.str with
      | Some k ->
          Alcotest.(check string)
            (Printf.sprintf "event %d: kind" i)
            kind_expected k
      | None -> Alcotest.failf "event %d: missing kind" i);
      match (job_expected, Option.bind (Json.mem "job" ev) Json.str) with
      | Some j, Some j' ->
          Alcotest.(check string) (Printf.sprintf "event %d: job" i) j j'
      | None, None -> ()
      | Some _, None -> Alcotest.failf "event %d: job field dropped" i
      | None, Some _ -> Alcotest.failf "event %d: spurious job field" i)
    events

let test_trace_schema_memory () =
  let sink = Trace.memory () in
  List.iter
    (fun (job, kind, fields) -> Trace.emit sink ?job ~kind fields)
    documented_events;
  let events = Trace.events sink in
  Alcotest.(check int)
    "all kinds recorded"
    (List.length documented_events)
    (List.length events);
  check_schema events

let test_trace_schema_channel_roundtrip () =
  let path = Filename.temp_file "psdp_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let sink = Trace.channel oc in
      List.iter
        (fun (job, kind, fields) -> Trace.emit sink ?job ~kind fields)
        documented_events;
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int)
        "one line per event"
        (List.length documented_events)
        (List.length lines);
      let events =
        List.map
          (fun line ->
            match Json.parse line with
            | Ok ev -> ev
            | Error e -> Alcotest.failf "unparseable line %S: %s" line e)
          lines
      in
      check_schema events)

let test_trace_flush_batching () =
  let path = Filename.temp_file "psdp_flush" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let sink = Trace.channel ~flush_every:100 oc in
      let count_lines () =
        let ic = open_in path in
        let n = ref 0 in
        (try
           while true do
             ignore (input_line ic);
             incr n
           done
         with End_of_file -> close_in ic);
        !n
      in
      for i = 1 to 5 do
        Trace.emit sink ~kind:"cache"
          [ ("status", Json.Str "miss"); ("i", Json.Num (float_of_int i)) ]
      done;
      (* Below the batch threshold nothing has reached the file yet… *)
      Alcotest.(check int) "writes are batched" 0 (count_lines ());
      (* …until a flush forces the batch out. *)
      Trace.flush_sink sink;
      Alcotest.(check int) "flush_sink drains the batch" 5 (count_lines ());
      close_out oc)

(* ------------------------------------------------------------------ *)
(* Trace context: the identity a request carries across processes *)

let test_trace_context_mint_child () =
  let root = Trace_context.mint () in
  Alcotest.(check bool) "mint is a root" true (Trace_context.is_root root);
  Alcotest.(check bool) "mint is sampled" true root.Trace_context.sampled;
  let c = Trace_context.child root in
  Alcotest.(check bool) "child is not a root" false (Trace_context.is_root c);
  Alcotest.(check string)
    "child shares the trace" root.Trace_context.trace_id
    c.Trace_context.trace_id;
  Alcotest.(check (option string))
    "child is parented under the root's span"
    (Some root.Trace_context.span_id)
    c.Trace_context.parent_id;
  Alcotest.(check bool)
    "child gets a fresh span id" true
    (c.Trace_context.span_id <> root.Trace_context.span_id);
  Alcotest.(check bool)
    "mints are distinct" true
    ((Trace_context.mint ()).Trace_context.trace_id
    <> root.Trace_context.trace_id)

let test_trace_context_roundtrip () =
  List.iter
    (fun ctx ->
      let s = Trace_context.to_string ctx in
      match Trace_context.of_string s with
      | Some c ->
          Alcotest.(check bool)
            (s ^ " reparses to itself") true
            (Trace_context.equal c ctx)
      | None -> Alcotest.failf "%s failed to reparse" s)
    [
      Trace_context.mint ();
      Trace_context.mint ~sampled:false ();
      Trace_context.child (Trace_context.mint ());
      Trace_context.child (Trace_context.child (Trace_context.mint ()));
    ]

let ctx_of_parts ?parent span_id =
  match
    Trace_context.of_parts
      ~trace_id:"0123456789abcdef0123456789abcdef"
      ~span_id ?parent ~sampled:true ()
  with
  | Some c -> c
  | None -> Alcotest.fail "of_parts rejected valid ids"

let test_trace_context_validation () =
  let bad ~trace_id ~span_id ?parent why =
    match Trace_context.of_parts ~trace_id ~span_id ?parent ~sampled:true () with
    | None -> ()
    | Some _ -> Alcotest.fail ("of_parts accepted " ^ why)
  in
  let tid = "0123456789abcdef0123456789abcdef" in
  bad ~trace_id:(String.make 32 '0') ~span_id:"0123456789abcdef"
    "an all-zero trace id";
  bad ~trace_id:"abc" ~span_id:"0123456789abcdef" "a short trace id";
  bad ~trace_id:(String.uppercase_ascii tid) ~span_id:"0123456789abcdef"
    "uppercase hex";
  bad ~trace_id:tid ~span_id:"0123456789abcdeg" "non-hex span id";
  bad ~trace_id:tid ~span_id:"0123456789abcdef" ~parent:"short"
    "a malformed parent";
  Alcotest.(check (option reject)) "of_string rejects the empty string" None
    (Option.map ignore (Trace_context.of_string ""))

(* Every single-bit flip of the string form must be caught by the
   trailing check — [None] means "mint a fresh root", so a flipped bit
   degrades tracing rather than grafting spans onto a garbage trace. *)
let test_trace_context_corruption () =
  let ctx = ctx_of_parts ~parent:"fedcba9876543210" "00aa11bb22cc33dd" in
  let s = Trace_context.to_string ctx in
  for i = 0 to String.length s - 1 do
    for b = 0 to 7 do
      let damaged =
        String.mapi
          (fun j c ->
            if j = i then Char.chr (Char.code c lxor (1 lsl b)) else c)
          s
      in
      match Trace_context.of_string damaged with
      | None -> ()
      | Some _ ->
          Alcotest.failf "bit %d of byte %d survived the check" b i
    done
  done

(* ------------------------------------------------------------------ *)
(* Trace assembly: cross-process span streams -> one tree *)

(* A three-process trace the way client/coordinator/worker write it:
   the client owns the "request" root, the coordinator's spans are its
   children, the worker's "exec" hangs under the coordinator's
   "assign". *)
let asm_request = ctx_of_parts "00000000000000aa"

let asm_queue =
  ctx_of_parts ~parent:"00000000000000aa" "00000000000000bb"

let asm_assign =
  ctx_of_parts ~parent:"00000000000000aa" "00000000000000cc"

let asm_exec =
  ctx_of_parts ~parent:"00000000000000cc" "00000000000000dd"

let asm_solve =
  ctx_of_parts ~parent:"00000000000000dd" "00000000000000ee"

let span_ev ~t ~role ~pid ctx name dur =
  Json.Obj
    [
      ("t", Json.Num t);
      ("kind", Json.Str "span");
      ("job", Json.Str "j1");
      ("role", Json.Str role);
      ("pid", Json.Num (float_of_int pid));
      ("name", Json.Str name);
      ("ctx", Json.Str (Trace_context.to_string ctx));
      ("dur", Json.Num dur);
    ]

(* Stamps are deliberately hostile: the worker's clock sits a million
   seconds behind the client's and spans arrive scrambled. Parent links
   alone must fix the shape. *)
let asm_events =
  [
    span_ev ~t:3.0 ~role:"worker" ~pid:30 asm_solve "solve" 0.6;
    span_ev ~t:9.9 ~role:"client" ~pid:10 asm_request "request" 2.0;
    span_ev ~t:1_000_000.0 ~role:"coordinator" ~pid:20 asm_queue "queue_wait"
      0.3;
    span_ev ~t:3.5 ~role:"worker" ~pid:30 asm_exec "exec" 0.8;
    span_ev ~t:1_000_001.0 ~role:"coordinator" ~pid:20 asm_assign "assign" 1.5;
  ]

let check_assembled (a : Trace_assemble.t) =
  Alcotest.(check int) "all spans kept" 5 a.Trace_assemble.spans;
  match a.Trace_assemble.trees with
  | [ tree ] ->
      Alcotest.(check (option string))
        "job id surfaced" (Some "j1") tree.Trace_assemble.t_job;
      Alcotest.(check int) "no orphans" 0 tree.Trace_assemble.orphans;
      Alcotest.(check int)
        "three contributing processes" 3
        (List.length tree.Trace_assemble.procs);
      (match tree.Trace_assemble.roots with
      | [ root ] ->
          Alcotest.(check string)
            "request is the root" "request"
            root.Trace_assemble.span.Trace_assemble.name;
          let kids =
            List.map
              (fun (n : Trace_assemble.node) ->
                n.Trace_assemble.span.Trace_assemble.name)
              root.Trace_assemble.children
          in
          Alcotest.(check (list string))
            "coordinator spans hang under the request"
            [ "assign"; "queue_wait" ]
            (List.sort compare kids)
      | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots));
      let path_of (s : Trace_assemble.seg) = s.Trace_assemble.path in
      Alcotest.(check (list string))
        "critical path follows the heaviest child"
        [ "request"; "request/assign"; "request/assign/exec";
          "request/assign/exec/solve" ]
        (List.map path_of (Trace_assemble.critical_path tree));
      Alcotest.(check (float 1e-9))
        "total is the root wall clock" 2.0
        (Trace_assemble.total tree);
      (* Exclusive times cover the whole tree: coverage 100%. *)
      Alcotest.(check (float 1e-9))
        "self times attribute everything" 2.0
        (Trace_assemble.attributed tree)
  | l -> Alcotest.failf "expected 1 tree, got %d" (List.length l)

let test_assemble_out_of_order () = check_assembled (Trace_assemble.of_events asm_events)

(* Same spans, any order, any clocks: the tree must not change. *)
let test_assemble_order_invariance () =
  let skewed =
    List.mapi
      (fun i ev ->
        match ev with
        | Json.Obj fields ->
            Json.Obj
              (List.map
                 (fun (k, v) ->
                   if k = "t" then
                     ( k,
                       Json.Num (float_of_int ((17 * i) mod 5) *. 1e7) )
                   else (k, v))
                 fields)
        | other -> other)
      (List.rev asm_events)
  in
  check_assembled (Trace_assemble.of_events skewed)

let test_assemble_orphan_and_torn () =
  let lost_parent = ctx_of_parts ~parent:"aaaaaaaaaaaaaaaa" "ffffffffffff00ff" in
  let a =
    Trace_assemble.of_lines
      [
        (match span_ev ~t:1.0 ~role:"worker" ~pid:9 lost_parent "exec" 0.5 with
        | Json.Obj fields ->
            Json.to_string (Json.Obj (fields @ [ ("status", Json.Str "ok") ]))
        | _ -> assert false);
        {|{"t":2.0,"kind":"decision_call","job":"j1"}|};
        "{torn";
      ]
  in
  Alcotest.(check int) "span kept" 1 a.Trace_assemble.spans;
  Alcotest.(check int) "non-span + torn lines skipped" 2 a.Trace_assemble.skipped;
  match a.Trace_assemble.trees with
  | [ tree ] ->
      Alcotest.(check int) "orphan stays visible" 1 tree.Trace_assemble.orphans;
      Alcotest.(check int) "orphan becomes a root" 1
        (List.length tree.Trace_assemble.roots);
      Alcotest.(check bool)
        "the payload past the envelope is kept" true
        ((List.hd tree.Trace_assemble.roots).Trace_assemble.span
           .Trace_assemble.attrs
        = [ ("status", Json.Str "ok") ])
  | l -> Alcotest.failf "expected 1 tree, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* SLO: error-budget burn rates *)

let test_slo_parse_target () =
  (match Slo.parse_target "0.99@0.5" with
  | Ok t ->
      Alcotest.(check (float 1e-12)) "objective" 0.99 t.Slo.objective;
      Alcotest.(check (float 1e-12)) "latency" 0.5 t.Slo.latency;
      Alcotest.(check (float 1e-12)) "budget" 0.01 (Slo.budget t)
  | Error e -> Alcotest.failf "valid target rejected: %s" e);
  List.iter
    (fun s ->
      match Slo.parse_target s with
      | Ok _ -> Alcotest.failf "bad target %S accepted" s
      | Error _ -> ())
    [ ""; "nope"; "1.5@2"; "0.99@0"; "0.99@"; "@1"; "0@1" ]

let test_slo_burn_windows () =
  let tgt = Slo.make_target ~objective:0.9 ~latency:1.0 in
  let t = Slo.create ~windows:[ ("1m", 60.0); ("5m", 300.0) ] tgt in
  (* 10 requests, 2 breaches: breach fraction 0.2 against budget 0.1 —
     burn 2.0 in every window that saw them. *)
  for i = 1 to 10 do
    Slo.observe ~now:(1000.0 +. float_of_int i) t
      (if i mod 5 = 0 then 2.0 else 0.1)
  done;
  Alcotest.(check int) "requests" 10 (Slo.requests t);
  Alcotest.(check int) "breaches" 2 (Slo.breaches t);
  Alcotest.(check (float 1e-9)) "1m burn" 2.0 (Slo.burn_rate ~now:1010.0 t "1m");
  Alcotest.(check (float 1e-9)) "5m burn" 2.0 (Slo.burn_rate ~now:1010.0 t "5m");
  (* 200 s later the 1m ring has rotated the breaches out; the 5m ring
     still remembers them. *)
  Alcotest.(check (float 1e-9))
    "1m burn decays to zero" 0.0
    (Slo.burn_rate ~now:1210.0 t "1m");
  Alcotest.(check bool)
    "5m burn persists" true
    (Slo.burn_rate ~now:1210.0 t "5m" > 1.9);
  (match Slo.burn_rate t "nope" with
  | _ -> Alcotest.fail "unknown window accepted"
  | exception Invalid_argument _ -> ())

let test_slo_exports_metrics () =
  let reg = Metrics.create () in
  let t =
    Slo.create ~registry:reg (Slo.make_target ~objective:0.5 ~latency:1.0)
  in
  Slo.observe ~now:10.0 t 0.5;
  Slo.observe ~now:11.0 t 3.0;
  let txt = Metrics.render reg in
  let has l = List.mem l (String.split_on_char '\n' txt) in
  Alcotest.(check bool) "requests series" true (has "psdp_slo_requests_total 2");
  Alcotest.(check bool) "breaches series" true (has "psdp_slo_breaches_total 1");
  Alcotest.(check bool)
    "burn gauge per window" true
    (contains_substring txt {|psdp_slo_burn_rate{window="5m"}|})

let test_slo_report_of_events () =
  let span ?(name = "request") t dur =
    Json.Obj
      [
        ("t", Json.Num t);
        ("kind", Json.Str "span");
        ("job", Json.Str "j");
        ("name", Json.Str name);
        ("ctx", Json.Str (Trace_context.to_string (Trace_context.mint ())));
        ("dur", Json.Num dur);
      ]
  in
  let tgt = Slo.make_target ~objective:0.75 ~latency:1.0 in
  (* Request spans are the samples; the exec span is not. *)
  let r =
    Slo.report_of_events tgt
      [ span 1.0 0.1; span 2.0 0.2; span 3.0 0.3; span 4.0 2.0;
        span ~name:"exec" 4.5 9.0 ]
  in
  Alcotest.(check int) "requests" 4 r.Slo.r_requests;
  Alcotest.(check int) "breaches" 1 r.Slo.r_breaches;
  Alcotest.(check (float 1e-9)) "compliance" 0.75 r.Slo.r_compliance;
  (* 1 breach of the 1 tolerated (4 * 0.25): the whole budget. *)
  Alcotest.(check (float 1e-9)) "budget consumed" 1.0 r.Slo.r_budget_consumed;
  Alcotest.(check bool) "p99 covers the slow tail" true (r.Slo.r_p99 > 0.3);
  ignore (Format.asprintf "%a" Slo.pp_report r);
  (* A batch or worker stream has no request spans: its exec spans are
     the samples. *)
  let batch =
    Slo.report_of_events tgt [ span ~name:"exec" 1.0 0.5; span ~name:"exec" 2.0 1.5 ]
  in
  Alcotest.(check int) "exec fallback: requests" 2 batch.Slo.r_requests;
  Alcotest.(check int) "exec fallback: breaches" 1 batch.Slo.r_breaches;
  (* Empty traces still report (the CLI prints zeros, exits 0). *)
  let empty = Slo.report_of_events tgt [] in
  Alcotest.(check int) "empty: no requests" 0 empty.Slo.r_requests;
  Alcotest.(check bool) "empty: nan quantiles" true (Float.is_nan empty.Slo.r_p50);
  ignore (Format.asprintf "%a" Slo.pp_report empty)

(* ------------------------------------------------------------------ *)
(* Cache traffic counters *)

let entry digest eps : Cache.entry =
  {
    Cache.digest;
    eps;
    backend = "exact";
    mode = "adaptive";
    value = 1.0;
    upper_bound = 1.1;
    x = [| 1.0 |];
    decision_calls = 2;
    iterations = 10;
  }

let test_cache_stats () =
  let c = Cache.create () in
  let s = Cache.stats c in
  Alcotest.(check int) "fresh: no hits" 0 s.Cache.hits;
  Alcotest.(check int) "fresh: no misses" 0 s.Cache.misses;
  Alcotest.(check int) "fresh: no warm hits" 0 s.Cache.warm_hits;
  Alcotest.(check int) "fresh: no stores" 0 s.Cache.stores;
  ignore (Cache.find c ~digest:"d1" ~eps:0.1 ~backend:"exact" ~mode:"adaptive");
  Cache.store c (entry "d1" 0.1);
  ignore (Cache.find c ~digest:"d1" ~eps:0.1 ~backend:"exact" ~mode:"adaptive");
  ignore (Cache.find_warm c ~digest:"d1" ~backend:"exact" ~mode:"adaptive");
  ignore (Cache.find_warm c ~digest:"nope" ~backend:"exact" ~mode:"adaptive");
  let s = Cache.stats c in
  Alcotest.(check int) "one hit" 1 s.Cache.hits;
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "warm lookup that found a source" 1 s.Cache.warm_hits;
  Alcotest.(check int) "one store" 1 s.Cache.stores

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "counter labels" `Quick test_counter_labels;
          Alcotest.test_case "invalid registrations" `Quick
            test_invalid_registrations;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantiles;
          Alcotest.test_case "histogram absorb" `Quick test_histogram_absorb;
          Alcotest.test_case "prometheus exposition" `Quick
            test_render_exposition;
          Alcotest.test_case "exposition escaping" `Quick
            test_exposition_escaping;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "disabled is free" `Quick
            test_profiler_disabled_is_free;
          Alcotest.test_case "taxonomy report" `Quick test_profiler_taxonomy;
          Alcotest.test_case "merge" `Quick test_profiler_merge;
          Alcotest.test_case "exports to shared registry" `Quick
            test_profiler_exports_to_registry;
        ] );
      ( "trace-summary",
        [
          Alcotest.test_case "of_events" `Quick test_trace_summary_of_events;
          Alcotest.test_case "fault counts" `Quick
            test_trace_summary_fault_counts;
          Alcotest.test_case "lenient on torn lines" `Quick
            test_trace_summary_lenient;
        ] );
      ( "trace-context",
        [
          Alcotest.test_case "mint and child" `Quick
            test_trace_context_mint_child;
          Alcotest.test_case "string roundtrip" `Quick
            test_trace_context_roundtrip;
          Alcotest.test_case "validation" `Quick test_trace_context_validation;
          Alcotest.test_case "single-bit corruption rejected" `Quick
            test_trace_context_corruption;
        ] );
      ( "trace-assemble",
        [
          Alcotest.test_case "out-of-order streams" `Quick
            test_assemble_out_of_order;
          Alcotest.test_case "order and clock-skew invariance" `Quick
            test_assemble_order_invariance;
          Alcotest.test_case "orphans and torn lines" `Quick
            test_assemble_orphan_and_torn;
        ] );
      ( "slo",
        [
          Alcotest.test_case "parse target" `Quick test_slo_parse_target;
          Alcotest.test_case "burn-rate windows" `Quick test_slo_burn_windows;
          Alcotest.test_case "exports metrics" `Quick test_slo_exports_metrics;
          Alcotest.test_case "offline report" `Quick test_slo_report_of_events;
        ] );
      ( "trace-schema",
        [
          Alcotest.test_case "memory sink" `Quick test_trace_schema_memory;
          Alcotest.test_case "channel JSONL roundtrip" `Quick
            test_trace_schema_channel_roundtrip;
          Alcotest.test_case "flush batching" `Quick test_trace_flush_batching;
        ] );
      ( "cache-stats",
        [ Alcotest.test_case "traffic counters" `Quick test_cache_stats ] );
    ]
