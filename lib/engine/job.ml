open Psdp_prelude
open Psdp_core

type op = Solve | Decide of { threshold : float }
type source = File of string | Inline of Instance.t

module Trace_context = Psdp_obs.Trace_context

type spec = {
  id : string;
  op : op;
  source : source;
  eps : float;
  backend : Decision.backend;
  mode : Decision.mode;
  priority : int;
  timeout : float option;
  parent : string option;
  trace : Trace_context.t option;
}

let default_backend = Decision.Exact
let default_mode = Decision.Adaptive { check_every = 10 }

let make_spec ?(id = "") ?(eps = 0.1) ?(backend = default_backend)
    ?(mode = default_mode) ?(priority = 0) ?timeout ?parent ?trace op source =
  { id; op; source; eps; backend; mode; priority; timeout; parent; trace }

let solve_spec ?id ?eps ?backend ?mode ?priority ?timeout ?parent ?trace
    source =
  make_spec ?id ?eps ?backend ?mode ?priority ?timeout ?parent ?trace Solve
    source

let decide_spec ?id ?eps ?backend ?mode ?priority ?timeout ?trace ~threshold
    source =
  make_spec ?id ?eps ?backend ?mode ?priority ?timeout ?trace
    (Decide { threshold }) source

type cache_status = Hit | Warm | Parent | Miss

type outcome =
  | Solved of {
      value : float;
      upper_bound : float;
      decision_calls : int;
      iterations : int;
      cache : cache_status;
      certified : bool;
    }
  | Decided of { accepted : bool; bound : float; iterations : int }
  | Failed of string
  | Cancelled
  | Timed_out

type result = { id : string; outcome : outcome; elapsed : float }

let backend_key = function
  | Decision.Exact -> "exact"
  | Decision.Sketched { seed; sketch_dim } ->
      Printf.sprintf "sketched:%d:%s" seed
        (match sketch_dim with Some d -> string_of_int d | None -> "auto")

let mode_key = function
  | Decision.Faithful -> "faithful"
  | Decision.Adaptive { check_every } ->
      Printf.sprintf "adaptive:%d" check_every

let cache_status_string = function
  | Hit -> "hit"
  | Warm -> "warm"
  | Parent -> "parent"
  | Miss -> "miss"

let status_string = function
  | Solved _ -> "ok"
  | Decided d -> if d.accepted then "ok" else "rejected"
  | Failed _ -> "failed"
  | Cancelled -> "cancelled"
  | Timed_out -> "timeout"

(* ------------------------------------------------------------------ *)
(* Decoding *)

let spec_of_json j =
  let ( let* ) = Result.bind in
  let opt name extract ~default =
    match Json.mem name j with
    | None -> Ok default
    | Some v -> (
        match extract v with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "bad %S field" name))
  in
  let* id = opt "id" Json.str ~default:"" in
  let* op_name = opt "op" Json.str ~default:"solve" in
  let* eps = opt "eps" Json.num ~default:0.1 in
  let* priority = opt "priority" Json.int ~default:0 in
  let* timeout =
    opt "timeout" (fun v -> Option.map Option.some (Json.num v)) ~default:None
  in
  let* parent =
    opt "parent" (fun v -> Option.map Option.some (Json.str v)) ~default:None
  in
  let* file =
    match Option.bind (Json.mem "file" j) Json.str with
    | Some f -> Ok f
    | None -> Error "missing \"file\" field"
  in
  let* op =
    match op_name with
    | "solve" -> Ok Solve
    | "decide" -> (
        match Option.bind (Json.mem "threshold" j) Json.num with
        | Some t when t > 0.0 -> Ok (Decide { threshold = t })
        | Some _ -> Error "\"threshold\" must be positive"
        | None -> Error "op \"decide\" requires a numeric \"threshold\"")
    | other -> Error (Printf.sprintf "unknown op %S" other)
  in
  let* backend =
    let* name = opt "backend" Json.str ~default:"exact" in
    let* seed = opt "seed" Json.int ~default:17 in
    let* sketch_dim =
      opt "sketch_dim"
        (fun v -> Option.map Option.some (Json.int v))
        ~default:None
    in
    match name with
    | "exact" -> Ok Decision.Exact
    | "sketched" -> Ok (Decision.Sketched { seed; sketch_dim })
    | other -> Error (Printf.sprintf "unknown backend %S" other)
  in
  let* mode =
    let* name = opt "mode" Json.str ~default:"adaptive" in
    let* check_every = opt "check_every" Json.int ~default:10 in
    match name with
    | "adaptive" -> Ok (Decision.Adaptive { check_every })
    | "faithful" -> Ok Decision.Faithful
    | other -> Error (Printf.sprintf "unknown mode %S" other)
  in
  (* The trace context is deliberately outside the strict codec: a
     corrupt, truncated or foreign context string must degrade to "no
     context" (the receiver mints a fresh root) — a mangled trace id
     must never fail a frame or a manifest line. *)
  let trace =
    match Option.bind (Json.mem "trace" j) Json.str with
    | Some s -> Trace_context.of_string s
    | None -> None
  in
  if eps <= 0.0 || eps >= 1.0 then Error "\"eps\" must lie in (0,1)"
  else
    Ok
      {
        id;
        op;
        source = File file;
        eps;
        backend;
        mode;
        priority;
        timeout;
        parent;
        trace;
      }

(* ------------------------------------------------------------------ *)
(* Encoding *)

let spec_to_json spec =
  match spec.source with
  | Inline _ -> Error "inline sources have no JSON form"
  | File path ->
      let op_fields =
        match spec.op with
        | Solve -> [ ("op", Json.Str "solve") ]
        | Decide { threshold } ->
            [ ("op", Json.Str "decide"); ("threshold", Json.Num threshold) ]
      in
      let backend_fields =
        match spec.backend with
        | Decision.Exact -> [ ("backend", Json.Str "exact") ]
        | Decision.Sketched { seed; sketch_dim } ->
            ("backend", Json.Str "sketched")
            :: ("seed", Json.Num (float_of_int seed))
            ::
            (match sketch_dim with
            | Some d -> [ ("sketch_dim", Json.Num (float_of_int d)) ]
            | None -> [])
      in
      let mode_fields =
        match spec.mode with
        | Decision.Faithful -> [ ("mode", Json.Str "faithful") ]
        | Decision.Adaptive { check_every } ->
            [
              ("mode", Json.Str "adaptive");
              ("check_every", Json.Num (float_of_int check_every));
            ]
      in
      let timeout_fields =
        match spec.timeout with
        | Some s -> [ ("timeout", Json.Num s) ]
        | None -> []
      in
      let parent_fields =
        match spec.parent with
        | Some p -> [ ("parent", Json.Str p) ]
        | None -> []
      in
      let trace_fields =
        match spec.trace with
        | Some c -> [ ("trace", Json.Str (Trace_context.to_string c)) ]
        | None -> []
      in
      Ok
        (Json.Obj
           (("id", Json.Str spec.id) :: op_fields
           @ [ ("file", Json.Str path); ("eps", Json.Num spec.eps) ]
           @ backend_fields @ mode_fields
           @ [ ("priority", Json.Num (float_of_int spec.priority)) ]
           @ timeout_fields @ parent_fields @ trace_fields))

let result_to_json r =
  let fields =
    match r.outcome with
    | Solved s ->
        [
          ("value", Json.Num s.value);
          ("upper", Json.Num s.upper_bound);
          ("calls", Json.Num (float_of_int s.decision_calls));
          ("iters", Json.Num (float_of_int s.iterations));
          ("cache", Json.Str (cache_status_string s.cache));
          ("certified", Json.Bool s.certified);
        ]
    | Decided d ->
        [
          ("accepted", Json.Bool d.accepted);
          ("bound", Json.Num d.bound);
          ("iters", Json.Num (float_of_int d.iterations));
        ]
    | Failed msg -> [ ("error", Json.Str msg) ]
    | Cancelled | Timed_out -> []
  in
  Json.Obj
    (("id", Json.Str r.id) :: ("status", Json.Str (status_string r.outcome))
    :: fields
    @ [ ("elapsed", Json.Num r.elapsed) ])

let result_of_json j =
  let ( let* ) = Result.bind in
  let str name =
    match Option.bind (Json.mem name j) Json.str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "result: missing or bad %S" name)
  in
  (* [result_to_json] prints non-finite floats as [null] (JSON has no
     spelling for them); accept that and substitute a stated default so
     the codec round-trips every result the engine can produce. *)
  let num ?(default = 0.0) name =
    match Json.mem name j with
    | None -> Error (Printf.sprintf "result: missing %S" name)
    | Some Json.Null -> Ok default
    | Some v -> (
        match Json.num v with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "result: bad %S" name))
  in
  let int name = Result.map int_of_float (num name) in
  let bool name =
    match Option.bind (Json.mem name j) Json.bool with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "result: missing or bad %S" name)
  in
  let* id = str "id" in
  let* status = str "status" in
  let* elapsed = num "elapsed" in
  let* outcome =
    match status with
    | "cancelled" -> Ok Cancelled
    | "timeout" -> Ok Timed_out
    | "failed" ->
        let* msg = str "error" in
        Ok (Failed msg)
    | "ok" | "rejected" -> (
        match Json.mem "accepted" j with
        | Some _ ->
            let* accepted = bool "accepted" in
            let* bound = num ~default:Float.infinity "bound" in
            let* iterations = int "iters" in
            Ok (Decided { accepted; bound; iterations })
        | None ->
            let* value = num "value" in
            let* upper_bound = num "upper" in
            let* decision_calls = int "calls" in
            let* iterations = int "iters" in
            let* certified = bool "certified" in
            let* cache =
              let* c = str "cache" in
              match c with
              | "hit" -> Ok Hit
              | "warm" -> Ok Warm
              | "parent" -> Ok Parent
              | "miss" -> Ok Miss
              | other -> Error (Printf.sprintf "result: bad cache %S" other)
            in
            Ok
              (Solved
                 {
                   value;
                   upper_bound;
                   decision_calls;
                   iterations;
                   cache;
                   certified;
                 }))
    | other -> Error (Printf.sprintf "result: unknown status %S" other)
  in
  Ok { id; outcome; elapsed }

(* ------------------------------------------------------------------ *)
(* Manifests *)

let resolve ?dir spec =
  match (dir, spec.source) with
  | Some d, File path when Filename.is_relative path ->
      { spec with source = File (Filename.concat d path) }
  | _ -> spec

let parse_manifest ?dir text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then go (lineno + 1) acc rest
        else
          let parsed =
            match Json.parse trimmed with
            | Error msg -> Error msg
            | Ok j -> spec_of_json j
          in
          (match parsed with
          | Error msg ->
              Error (Printf.sprintf "manifest line %d: %s" lineno msg)
          | Ok spec ->
              let spec =
                if spec.id = "" then
                  { spec with id = Printf.sprintf "job-%d" lineno }
                else spec
              in
              go (lineno + 1) (resolve ?dir spec :: acc) rest)
  in
  go 1 [] lines
