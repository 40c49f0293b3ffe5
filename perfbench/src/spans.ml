(* Spans keyed by request id: the benchmark's own spans around every
   public call it makes, plus the program's spans converted by [Probe].
   Each request is one tree whose root is the benchmark's "request"
   span (layer "bench"): its duration is the request's wall time as the
   caller saw it.

   A span's self time is its duration minus its direct children's
   durations, floored at zero. When children nest inside their parents
   the self times of a tree sum exactly to the root's duration; a child
   that overruns its parent shows up as a sum above it. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a request root *)
  req : string;
  name : string;
  layer : string;
  dur : float;  (** seconds *)
}

type t = { mutable spans : span list; mutable next : int; lock : Mutex.t }

let create () = { spans = []; next = 0; lock = Mutex.create () }

let fresh t =
  Mutex.protect t.lock (fun () ->
      let id = t.next in
      t.next <- id + 1;
      id)

let add t ~req ~parent ~name ~layer ~dur =
  let id = fresh t in
  Mutex.protect t.lock (fun () ->
      t.spans <- { id; parent; req; name; layer; dur } :: t.spans);
  id

(* [wrap t ~req ~parent ~name ~layer f] times [f id] as span [id]. *)
let wrap t ~req ~parent ~name ~layer f =
  let id = fresh t in
  let t0 = Common.now () in
  Fun.protect
    ~finally:(fun () ->
      let dur = Common.now () -. t0 in
      Mutex.protect t.lock (fun () ->
          t.spans <- { id; parent; req; name; layer; dur } :: t.spans))
    (fun () -> f id)

let all t = Mutex.protect t.lock (fun () -> List.rev t.spans)

type tree = {
  req : string;
  wall : float;  (** root duration *)
  selfs : (span * float) list;  (** every span with its self time *)
}

let trees t =
  let spans = all t in
  let by_req = Hashtbl.create 64 in
  List.iter
    (fun (s : span) ->
      Hashtbl.replace by_req s.req
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_req s.req)))
    spans;
  let child_total = Hashtbl.create 256 in
  List.iter
    (fun (s : span) ->
      if s.parent >= 0 then
        Hashtbl.replace child_total s.parent
          (s.dur +. Option.value ~default:0.0 (Hashtbl.find_opt child_total s.parent)))
    spans;
  let order = ref [] in
  List.iter
    (fun (s : span) -> if s.parent < 0 then order := s.req :: !order)
    spans;
  List.rev_map
    (fun req ->
      let ss = List.rev (Hashtbl.find by_req req) in
      let wall =
        List.fold_left
          (fun acc (s : span) -> if s.parent < 0 then acc +. s.dur else acc)
          0.0 ss
      in
      let selfs =
        List.map
          (fun (s : span) ->
            let c = Option.value ~default:0.0 (Hashtbl.find_opt child_total s.id) in
            (s, Float.max 0.0 (s.dur -. c)))
          ss
      in
      { req; wall; selfs })
    !order

(* Summed self time of every span, the root's own residue included:
   equals [wall] when the tree nests properly. *)
let self_sum tr = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 tr.selfs

(* Self time attributed to a named layer (everything but the root). *)
let attributed tr =
  List.fold_left
    (fun acc ((s : span), self) -> if s.parent < 0 then acc else acc +. self)
    0.0 tr.selfs

(* Summed self time of spans matching [pick] over the given trees. *)
let self_of trees pick =
  List.fold_left
    (fun acc tr ->
      List.fold_left
        (fun acc (s, self) -> if pick s then acc +. self else acc)
        acc tr.selfs)
    0.0 trees

let wall_of trees = List.fold_left (fun acc tr -> acc +. tr.wall) 0.0 trees

(* Self-time share of the matching spans in the trees' wall time. *)
let share trees pick = Common.ratio (self_of trees pick) (wall_of trees)

let coverage trees = Common.ratio
    (List.fold_left (fun acc tr -> acc +. attributed tr) 0.0 trees)
    (wall_of trees)
