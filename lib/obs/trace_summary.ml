open Psdp_prelude

type phase_stat = {
  phase : string;
  samples : int;
  total : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type job_row = {
  job : string;
  status : string;
  queue_wait : float;
  run : float;
  calls : int;
  iters : int;
}

type attribution_row = {
  path : string;
  count : int;
  seconds : float;
  share : float;  (* of the summed root-span time *)
}

type t = {
  events : int;
  skipped : int;  (* unparseable lines (torn tail, alien content) *)
  span : float;  (* time covered by the trace, seconds *)
  jobs : job_row list;
  latencies : phase_stat list;
  attribution : attribution_row list;
  cache : (string * int) list;  (* status -> count, e.g. hit/warm/miss *)
  faults : (string * int) list;  (* fault event kind -> count *)
  serve : (string * int) list;  (* serve event kind -> count *)
}

let fault_kinds =
  [
    "job_fault"; "job_retry"; "job_quarantined"; "store_fault";
    "breaker_open"; "runner_restarted"; "sketch_resample";
  ]

let quantiles name samples =
  let arr = Array.of_list samples in
  {
    phase = name;
    samples = Array.length arr;
    total = Util.sum_array arr;
    p50 = (if arr = [||] then Float.nan else Stats.quantile arr 0.5);
    p90 = (if arr = [||] then Float.nan else Stats.quantile arr 0.9);
    p99 = (if arr = [||] then Float.nan else Stats.quantile arr 0.99);
  }

let bump tbl k =
  Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let attr (s : Trace_assemble.span) key conv =
  Option.bind (List.assoc_opt key s.Trace_assemble.attrs) conv

(* Spans come only through Trace_assemble; the point events that have
   no span (decision calls, faults, sheds) are read here directly. *)
let of_events events =
  let n_events = ref 0 and rejected = ref 0 in
  let t_min = ref Float.infinity and t_max = ref Float.neg_infinity in
  let fault_counts = Hashtbl.create 8 in
  let call_stamps : (string, float list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      match (Option.bind (Json.mem "t" ev) Json.num,
             Option.bind (Json.mem "kind" ev) Json.str) with
      | None, _ | _, None -> ()  (* alien line: not a trace event *)
      | Some t, Some kind -> (
          incr n_events;
          if t < !t_min then t_min := t;
          if t > !t_max then t_max := t;
          match (kind, Option.bind (Json.mem "job" ev) Json.str) with
          | "decision_call", Some id ->
              Hashtbl.replace call_stamps id
                (t :: Option.value ~default:[] (Hashtbl.find_opt call_stamps id))
          | "serve_rejected", _ -> incr rejected
          | k, _ when List.mem k fault_kinds -> bump fault_counts k
          | _ -> ()))
    events;
  let nodes = Trace_assemble.nodes (Trace_assemble.of_events events) in
  (* An engine run's queue_wait and exec spans are siblings: both hang
     under the context the job was submitted with. *)
  let waits = Hashtbl.create 16 in
  List.iter
    (fun (n : Trace_assemble.node) ->
      let s = n.span in
      if s.name = "queue_wait" then
        Hashtbl.replace waits (s.ctx.Trace_context.parent_id, s.job) s)
    nodes;
  (* One row per job (its last exec span wins), the exec subtree's
     profiler spans as attribution paths relative to exec, and the
     exec span's cache outcome. *)
  let rows = Hashtbl.create 16 and job_order = ref [] in
  let spans = Hashtbl.create 16 and cache_counts = Hashtbl.create 4 in
  let rec attribute prefix (n : Trace_assemble.node) =
    let path =
      if prefix = "" then n.span.name else prefix ^ "/" ^ n.span.name
    in
    let count = Option.value ~default:1 (attr n.span "count" Json.int) in
    let c0, s0 = Option.value ~default:(0, 0.0) (Hashtbl.find_opt spans path) in
    Hashtbl.replace spans path (c0 + count, s0 +. n.span.dur);
    List.iter (attribute path) n.children
  in
  List.iter
    (fun (n : Trace_assemble.node) ->
      match (n.span.name, n.span.job) with
      | "exec", Some id ->
          let s = n.span in
          let wait =
            Hashtbl.find_opt waits (s.ctx.Trace_context.parent_id, s.job)
          in
          let int_attr k = Option.value ~default:0 (attr s k Json.int) in
          let row =
            {
              job = id;
              status = Option.value ~default:"?" (attr s "status" Json.str);
              queue_wait =
                (match wait with Some w -> w.dur | None -> Float.nan);
              run = s.dur;
              calls = int_attr "calls";
              iters = int_attr "iters";
            }
          in
          if not (Hashtbl.mem rows id) then job_order := id :: !job_order;
          Hashtbl.replace rows id (row, s.finish);
          Option.iter (bump cache_counts) (attr s "cache" Json.str);
          List.iter (attribute "") n.children
      | _ -> ())
    nodes;
  let job_rows =
    List.rev_map (fun id -> fst (Hashtbl.find rows id)) !job_order
  in
  (* Per-decision-call latency: gaps between consecutive decision_call
     stamps within one job, closed by the exec span's stamp (the last
     call's work ends when the job does). *)
  let call_latencies =
    Hashtbl.fold
      (fun id stamps l ->
        let stamps =
          match Hashtbl.find_opt rows id with
          | Some (_, finish) -> finish :: stamps
          | None -> stamps
        in
        let rec gaps = function
          | later :: (earlier :: _ as rest) -> (later -. earlier) :: gaps rest
          | _ -> []
        in
        gaps stamps @ l)
      call_stamps []
  in
  let collect f = List.filter Float.is_finite (List.map f job_rows) in
  let root_total =
    Hashtbl.fold
      (fun path (_, s) acc ->
        if String.contains path '/' then acc else acc +. s)
      spans 0.0
  in
  let attribution =
    Hashtbl.fold
      (fun path (count, seconds) acc ->
        { path; count; seconds;
          share = (if root_total > 0.0 then seconds /. root_total else 0.0) }
        :: acc)
      spans []
    |> List.sort (fun a b -> compare a.path b.path)
  in
  let requests =
    List.filter (fun (n : Trace_assemble.node) -> n.span.name = "request") nodes
  in
  let degraded =
    List.filter
      (fun (n : Trace_assemble.node) ->
        Option.value ~default:0 (attr n.span "degrade_level" Json.int) > 0)
      requests
  in
  {
    events = !n_events;
    skipped = 0;
    span = (if !n_events = 0 then 0.0 else !t_max -. !t_min);
    jobs = job_rows;
    latencies =
      [
        quantiles "queue_wait" (collect (fun j -> j.queue_wait));
        quantiles "job_run" (collect (fun j -> j.run));
        quantiles "decision_call" call_latencies;
      ];
    attribution;
    cache =
      List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) cache_counts []);
    faults =
      List.filter_map
        (fun k -> Option.map (fun v -> (k, v)) (Hashtbl.find_opt fault_counts k))
        fault_kinds;
    serve =
      List.filter
        (fun (_, v) -> v > 0)
        [
          ("requests", List.length requests);
          ("degraded", List.length degraded);
          ("rejected", !rejected);
        ];
  }

(* Lenient by design: a trace file from a crashed or still-writing
   process routinely ends in a torn line, and operators summarize such
   files mid-incident. Unparseable lines are counted, never fatal. *)
let of_parsed (events, bad) = { (of_events events) with skipped = bad }
let of_lines lines = of_parsed (Trace_assemble.parse_lines lines)
let load path = Result.map of_parsed (Trace_assemble.read_files [ path ])

(* ---------------------------------------------------------------- *)
(* Rendering *)

let pf = Format.fprintf

let pp_val ppf v =
  if Float.is_nan v then pf ppf "%9s" "-" else pf ppf "%9.4f" v

let pp ppf t =
  pf ppf "@[<v>trace: %d events over %.3f s, %d jobs@," t.events t.span
    (List.length t.jobs);
  if t.skipped > 0 then
    pf ppf "warning: %d unparseable line(s) skipped (torn tail?)@," t.skipped;
  pf ppf "@,";
  pf ppf "per-job:@,";
  pf ppf "  %-16s %-9s %9s %9s %7s %8s@," "job" "status" "wait(s)" "run(s)"
    "calls" "iters";
  List.iter
    (fun j ->
      pf ppf "  %-16s %-9s %a %a %7d %8d@," j.job j.status pp_val j.queue_wait
        pp_val j.run j.calls j.iters)
    t.jobs;
  pf ppf "@,phase latency quantiles (s):@,";
  pf ppf "  %-16s %7s %10s %9s %9s %9s@," "phase" "samples" "total" "p50"
    "p90" "p99";
  List.iter
    (fun s ->
      pf ppf "  %-16s %7d %10.4f %a %a %a@," s.phase s.samples s.total pp_val
        s.p50 pp_val s.p90 pp_val s.p99)
    t.latencies;
  if t.attribution <> [] then begin
    pf ppf "@,work attribution (profiled spans):@,";
    pf ppf "  %-44s %9s %11s %7s@," "path" "count" "seconds" "share";
    List.iter
      (fun a ->
        pf ppf "  %-44s %9d %11.6f %6.1f%%@," a.path a.count a.seconds
          (100.0 *. a.share))
      t.attribution
  end;
  if t.cache <> [] then begin
    pf ppf "@,cache:";
    List.iter (fun (k, v) -> pf ppf " %s=%d" k v) t.cache;
    pf ppf "@,"
  end;
  if t.faults <> [] then begin
    pf ppf "@,faults:";
    List.iter (fun (k, v) -> pf ppf " %s=%d" k v) t.faults;
    pf ppf "@,"
  end;
  if t.serve <> [] then begin
    pf ppf "@,serve:";
    List.iter (fun (k, v) -> pf ppf " %s=%d" k v) t.serve;
    pf ppf "@,"
  end;
  pf ppf "@]"
