(* The one adapter through which the benchmark reads the program's own
   instrumentation: the in-program Profiler spans (expm, gram, sketch,
   select, cert, certify), the Kernel_stats counters, and the JSONL
   trace streams of the serve tier, the coordinator and the worker.
   These mechanisms are slated to be replaced by a single span model;
   keeping every read here confines that change to this file. *)

open Psdp_prelude
module Profiler = Psdp_obs.Profiler
module Trace_assemble = Psdp_obs.Trace_assemble
module Kernel_stats = Psdp_expm.Kernel_stats

(* Which layer (module directory under lib/) owns a program span.
   "expm" is the polynomial chain on the sketched backend and the dense
   Matfun.expm on the exact one. *)
let layer_of ~role ~exact name =
  match (role, name) with
  | "client", _ -> "dist"
  | "coordinator", _ -> "dist"
  | _, "request" -> "serve"
  | _, ("decision_call" | "iteration" | "select") -> "core"
  | _, "expm" -> if exact then "linalg" else "expm"
  | _, "gram" -> "sparse"
  | _, "sketch" -> "sketch"
  | _, ("cert" | "certify") -> "linalg"
  | _, "load" -> "instances"
  | _ -> "engine"

(* ---- Profiler ------------------------------------------------------- *)

(* Run [f] with a private profiler's root span for one request, then add
   the profiler's rows as spans under [parent]. The root row duplicates
   the benchmark's own span around the call, so its children attach to
   [parent] directly. *)
let profiled spans ~req ~parent ~exact f =
  let p = Profiler.create () in
  let root = Profiler.root p "solve" in
  let result = f root in
  Profiler.exit root;
  let rows =
    List.sort
      (fun (a : Profiler.row) (b : Profiler.row) -> compare a.path b.path)
      (Profiler.report p)
  in
  let ids = Hashtbl.create 8 in
  List.iter
    (fun (r : Profiler.row) ->
      match String.rindex_opt r.path '/' with
      | None -> Hashtbl.replace ids r.path parent
      | Some i ->
          let up = String.sub r.path 0 i in
          let name = String.sub r.path (i + 1) (String.length r.path - i - 1) in
          let par = Option.value ~default:parent (Hashtbl.find_opt ids up) in
          let id =
            Spans.add spans ~req ~parent:par ~name
              ~layer:(layer_of ~role:"" ~exact name)
              ~dur:r.total
          in
          Hashtbl.replace ids r.path id)
    rows;
  result

(* ---- Kernel_stats --------------------------------------------------- *)

type kernels = { matvecs : int; taylor_fallbacks : int }

let kernels () =
  {
    matvecs = Kernel_stats.matvecs ();
    taylor_fallbacks = Kernel_stats.taylor_fallbacks ();
  }

let kernels_since k0 =
  let k = kernels () in
  {
    matvecs = k.matvecs - k0.matvecs;
    taylor_fallbacks = k.taylor_fallbacks - k0.taylor_fallbacks;
  }

(* ---- trace streams -------------------------------------------------- *)

(* Assemble the span events of several streams (JSON events already in
   memory plus the JSONL trace files given) and graft each trace tree
   under the benchmark's root span of the job it carried. [roots] maps
   a job id to its request id and root span id; trees of unknown jobs
   are ignored. Returns the coordinator-side queue waits seen. *)
let graft spans ~roots ~events ~files =
  let t =
    Trace_assemble.of_events
      (events
      @ List.concat_map
          (fun f ->
            List.filter_map
              (fun l -> Result.to_option (Json.parse l))
              (Common.read_lines f))
          files)
  in
  let coord_waits = ref [] in
  List.iter
    (fun (tree : Trace_assemble.tree) ->
      match Option.bind tree.t_job (Hashtbl.find_opt roots) with
      | None -> ()
      | Some (req, root) ->
          let rec add parent (node : Trace_assemble.node) =
            let s = node.span in
            if s.role = "coordinator" && s.name = "queue_wait" then
              coord_waits := s.dur :: !coord_waits;
            let id =
              Spans.add spans ~req ~parent ~name:s.name
                ~layer:(layer_of ~role:s.role ~exact:true s.name)
                ~dur:s.dur
            in
            List.iter (add id) node.children
          in
          List.iter (add root) tree.roots)
    t.trees;
  Array.of_list !coord_waits
