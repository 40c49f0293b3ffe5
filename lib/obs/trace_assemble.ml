(* Cross-process trace assembly: merge the JSONL span streams written
   by client, coordinator, worker and serve processes into one tree per
   trace id, then attribute wall clock to named segments.

   Each process stamps events with its own monotonic clock, so stamps
   from different files are mutually meaningless — possibly skewed by
   hours or negative. The tree shape therefore comes from parent links
   alone; timestamps are only ever compared between two spans of the
   same (role, pid) stream, and then only to order siblings for
   display. Attribution likewise never subtracts stamps across
   processes: every span carries its own duration, and a node's self
   time is its duration minus its children's (clamped at zero), which
   telescopes to the root duration when spans nest properly. *)

open Psdp_prelude

type span = {
  ctx : Trace_context.t;
  name : string;
  role : string;  (* "?" when the stream was written untagged *)
  pid : int;  (* 0 when untagged *)
  job : string option;
  dur : float;  (* seconds, self-reported by the emitting process *)
  finish : float;  (* local stamp of emission; same-process order only *)
  attrs : (string * Json.t) list;  (* the event's other fields *)
}

type node = { span : span; mutable children : node list; mutable self : float }

type tree = {
  trace_id : string;
  t_job : string option;
  roots : node list;
  span_count : int;
  procs : (string * int) list;  (* distinct (role, pid) that contributed *)
  orphans : int;  (* parent link pointed outside the merged streams *)
}

type t = {
  trees : tree list;
  spans : int;
  skipped : int;  (* unparseable lines / non-span or context-less events *)
}

(* ------------------------------------------------------------------ *)
(* Parsing *)

(* The envelope every span event carries; whatever else it holds is
   the emitter's payload (status, count, worker, served_eps, ...). *)
let envelope = [ "t"; "kind"; "job"; "role"; "pid"; "name"; "ctx"; "dur" ]

let span_of_event ev =
  match
    ( Option.bind (Json.mem "kind" ev) Json.str,
      Option.bind (Option.bind (Json.mem "ctx" ev) Json.str)
        Trace_context.of_string,
      Option.bind (Json.mem "name" ev) Json.str,
      Option.bind (Json.mem "dur" ev) Json.num )
  with
  | Some "span", Some ctx, Some name, Some dur ->
      Some
        {
          ctx;
          name;
          role =
            Option.value ~default:"?"
              (Option.bind (Json.mem "role" ev) Json.str);
          pid =
            Option.value ~default:0 (Option.bind (Json.mem "pid" ev) Json.int);
          job = Option.bind (Json.mem "job" ev) Json.str;
          dur = Float.max 0.0 dur;
          finish =
            Option.value ~default:0.0
              (Option.bind (Json.mem "t" ev) Json.num);
          attrs =
            (match ev with
            | Json.Obj fields ->
                List.filter (fun (k, _) -> not (List.mem k envelope)) fields
            | _ -> []);
        }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Tree building *)

let start s = s.finish -. s.dur

let sort_siblings nodes =
  List.sort
    (fun a b ->
      (* Same process: the local clock is coherent, order by start.
         Cross-process siblings: order by (role, pid, name) — stable
         under any skew. *)
      if a.span.role = b.span.role && a.span.pid = b.span.pid then
        compare
          (start a.span, a.span.name)
          (start b.span, b.span.name)
      else
        compare
          (a.span.role, a.span.pid, a.span.name)
          (b.span.role, b.span.pid, b.span.name))
    nodes

let rec finalize node =
  node.children <- sort_siblings node.children;
  List.iter finalize node.children;
  let child_total =
    List.fold_left (fun acc c -> acc +. c.span.dur) 0.0 node.children
  in
  node.self <- Float.max 0.0 (node.span.dur -. child_total)

let build_tree trace_id spans =
  let nodes = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      let id = s.ctx.Trace_context.span_id in
      (* A span id seen twice (e.g. a replayed stream merged with
         itself) keeps its first occurrence; duplicates would double
         every duration under it. *)
      if not (Hashtbl.mem nodes id) then begin
        Hashtbl.replace nodes id { span = s; children = []; self = 0.0 };
        order := id :: !order
      end)
    spans;
  let roots = ref [] and orphans = ref 0 in
  List.iter
    (fun id ->
      let n = Hashtbl.find nodes id in
      match n.span.ctx.Trace_context.parent_id with
      | None -> roots := n :: !roots
      | Some p -> (
          match Hashtbl.find_opt nodes p with
          | Some parent when parent != n -> parent.children <- n :: parent.children
          | _ ->
              (* The parent's stream was not merged in (or the link is
                 damaged): keep the subtree visible as an extra root
                 rather than dropping it. *)
              incr orphans;
              roots := n :: !roots))
    (List.rev !order);
  let roots = sort_siblings !roots in
  List.iter finalize roots;
  let procs =
    List.sort_uniq compare
      (List.map (fun s -> (s.role, s.pid)) spans)
  in
  let t_job = List.find_map (fun s -> s.job) spans in
  {
    trace_id;
    t_job;
    roots;
    span_count = Hashtbl.length nodes;
    procs;
    orphans = !orphans;
  }

let of_events events =
  let by_trace = Hashtbl.create 8 in
  let order = ref [] in
  let spans = ref 0 and skipped = ref 0 in
  List.iter
    (fun ev ->
      match span_of_event ev with
      | None -> incr skipped
      | Some s ->
          incr spans;
          let tid = s.ctx.Trace_context.trace_id in
          (match Hashtbl.find_opt by_trace tid with
          | Some l -> Hashtbl.replace by_trace tid (s :: l)
          | None ->
              Hashtbl.replace by_trace tid [ s ];
              order := tid :: !order))
    events;
  let trees =
    List.rev_map
      (fun tid -> build_tree tid (List.rev (Hashtbl.find by_trace tid)))
      !order
  in
  { trees; spans = !spans; skipped = !skipped }

(* Lenient line parsing: a torn tail or an alien line costs one skipped
   count, never the whole assembly. *)
let parse_lines lines =
  let events = ref [] and bad = ref 0 in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line <> "" then
        match Json.parse line with
        | Ok ev -> events := ev :: !events
        | Error _ -> incr bad)
    lines;
  (List.rev !events, !bad)

let of_parsed (events, bad) =
  let t = of_events events in
  { t with skipped = t.skipped + bad }

let of_lines lines = of_parsed (parse_lines lines)

let read_files paths =
  let read path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        List.rev !lines)
  in
  match List.concat_map read paths with
  | lines -> Ok (parse_lines lines)
  | exception Sys_error msg -> Error msg

let load_files paths = Result.map of_parsed (read_files paths)

let nodes t =
  let rec walk acc n = List.fold_left walk (n :: acc) n.children in
  List.rev
    (List.fold_left
       (fun acc tree -> List.fold_left walk acc tree.roots)
       [] t.trees)

(* ------------------------------------------------------------------ *)
(* Analytics *)

type seg = {
  path : string;  (* "request/assign/exec" *)
  role : string;
  seconds : float;  (* critical path: span duration; attribution: self *)
  share : float;  (* of the tree total *)
}

let total tree = List.fold_left (fun acc r -> acc +. r.span.dur) 0.0 tree.roots

let attributed tree =
  let rec sum n = n.self +. List.fold_left (fun a c -> a +. sum c) 0.0 n.children in
  List.fold_left (fun acc r -> acc +. sum r) 0.0 tree.roots

(* Self-time attribution: every span's exclusive time, largest first.
   Sums to [total] when children nest inside their parents (the
   emitters guarantee this per process; cross-process queue/assign/exec
   segments nest by construction of the propagation protocol). *)
let attribution tree =
  let tot = total tree in
  let segs = ref [] in
  let rec walk prefix n =
    let path = if prefix = "" then n.span.name else prefix ^ "/" ^ n.span.name in
    segs :=
      {
        path;
        role = n.span.role;
        seconds = n.self;
        share = (if tot > 0.0 then n.self /. tot else 0.0);
      }
      :: !segs;
    List.iter (walk path) n.children
  in
  List.iter (walk "") tree.roots;
  List.sort (fun a b -> compare b.seconds a.seconds) !segs

(* The critical path: from the heaviest root, repeatedly descend into
   the heaviest child. Durations (not selfs) are reported so each step
   shows how much of the parent the chain explains. *)
let critical_path tree =
  let tot = total tree in
  let heaviest nodes =
    List.fold_left
      (fun best n ->
        match best with
        | Some b when b.span.dur >= n.span.dur -> best
        | _ -> Some n)
      None nodes
  in
  let rec descend prefix acc n =
    let path = if prefix = "" then n.span.name else prefix ^ "/" ^ n.span.name in
    let seg =
      {
        path;
        role = n.span.role;
        seconds = n.span.dur;
        share = (if tot > 0.0 then n.span.dur /. tot else 0.0);
      }
    in
    match heaviest n.children with
    | None -> List.rev (seg :: acc)
    | Some c -> descend path (seg :: acc) c
  in
  match heaviest tree.roots with None -> [] | Some r -> descend "" [] r

(* ------------------------------------------------------------------ *)
(* Rendering *)

let pf = Format.fprintf

let pp_tree ppf tree =
  pf ppf "@[<v>trace %s" tree.trace_id;
  (match tree.t_job with Some j -> pf ppf " job %s" j | None -> ());
  pf ppf ": %d spans across %d process(es)" tree.span_count
    (List.length tree.procs);
  if tree.orphans > 0 then pf ppf ", %d orphan(s)" tree.orphans;
  pf ppf "@,";
  let rec render indent n =
    pf ppf "%s%s [%s/%d] %.6fs (self %.6fs)@," indent n.span.name n.span.role
      n.span.pid n.span.dur n.self;
    List.iter (render (indent ^ "  ")) n.children
  in
  List.iter (render "  ") tree.roots;
  pf ppf "@]"

let pp_segments ppf segs =
  pf ppf "@[<v>  %-44s %-12s %11s %7s@," "segment" "role" "seconds" "share";
  List.iter
    (fun s ->
      pf ppf "  %-44s %-12s %11.6f %6.1f%%@," s.path s.role s.seconds
        (100.0 *. s.share))
    segs;
  pf ppf "@]"
