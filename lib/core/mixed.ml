open Psdp_prelude
open Psdp_linalg

type instance = {
  packing : Instance.t;
  covering : float array array;
}

let instance ~packing ~covering =
  let n = Instance.num_constraints packing in
  if Array.length covering = 0 then
    invalid_arg "Mixed.instance: no covering rows";
  Array.iteri
    (fun j row ->
      if Array.length row <> n then
        invalid_arg
          (Printf.sprintf "Mixed.instance: covering row %d has length %d <> %d"
             j (Array.length row) n);
      let positive = ref false in
      Array.iter
        (fun v ->
          if v < 0.0 then
            invalid_arg
              (Printf.sprintf "Mixed.instance: negative entry in covering row %d" j);
          if v > 0.0 then positive := true)
        row;
      if not !positive then
        invalid_arg
          (Printf.sprintf
             "Mixed.instance: covering row %d is all-zero (unsatisfiable)" j))
    covering;
  { packing; covering }

type certificate = { y : Mat.t; p : float array; gap : float }

type outcome =
  | Feasible of { x : float array }
  | Infeasible of certificate
  | Unknown

type result = { outcome : outcome; iterations : int }

let cx covering x =
  Array.map
    (fun row ->
      let s = ref 0.0 in
      Array.iteri (fun i c -> s := !s +. (c *. x.(i))) row;
      !s)
    covering

let verify ?(tol = 1e-6) ~eps inst x =
  Array.length x = Instance.num_constraints inst.packing
  && Array.for_all (fun v -> v >= 0.0) x
  && Certificate.psi_lambda_max inst.packing x <= 1.0 +. tol
  && Array.for_all
       (fun c -> c >= (1.0 -. eps) *. (1.0 -. tol))
       (cx inst.covering x)

(* Soft-min covering weights v_j = exp(-theta*(Cx)_j), computed stably
   relative to the minimum, and the per-variable covering yields
   (C'v)/(1'v). *)
let covering_yields ~theta covering cov =
  let mc = Array.length covering in
  let min_cov = Util.min_array cov in
  let v = Array.init mc (fun j -> exp (-.theta *. (cov.(j) -. min_cov))) in
  let total = Util.sum_array v in
  let n = Array.length covering.(0) in
  let yields = Array.make n 0.0 in
  Array.iteri
    (fun j row ->
      let w = v.(j) /. total in
      Array.iteri (fun i c -> yields.(i) <- yields.(i) +. (w *. c)) row)
    covering;
  (yields, Array.map (fun vj -> vj /. total) v)

let solve ?pool ?(backend = Decision.Exact) ?(check_every = 10)
    ?max_iterations ~eps inst =
  if eps <= 0.0 || eps >= 1.0 then
    invalid_arg "Mixed.solve: eps must lie in (0,1)";
  let packing = inst.packing in
  let covering = inst.covering in
  let n = Instance.num_constraints packing in
  let mc = Array.length covering in
  let params = Params.of_eps ~eps ~n in
  let budget =
    match max_iterations with Some b -> b | None -> params.Params.r_cap
  in
  let evaluate = Evaluator.create ?pool ~backend ~params packing in
  (* Soft-min sharpness: resolves covering gaps of order eps. *)
  let theta = (1.0 +. log (float_of_int (max 2 mc))) /. eps in
  let x = Decision.initial_point packing in
  let t = ref 0 in
  let finished : outcome option ref = ref None in
  let check_feasible () =
    (* Packing-normalize the iterate and test the covering side. *)
    let cert = Certificate.rescale_dual packing x in
    let candidate = cert.Certificate.x in
    if
      cert.Certificate.feasible
      && Array.for_all (fun c -> c >= 1.0 -. eps) (cx covering candidate)
    then finished := Some (Feasible { x = candidate })
  in
  (* Exact pricing for the infeasibility certificate: even under the
     sketched backend the certificate itself must be checked against a
     materialized Y. Built lazily — only on a candidate-empty bucket. *)
  let exact_evaluator = lazy (Evaluator.create ~backend:Decision.Exact ~params packing) in
  let certify_infeasible yields =
    let { Evaluator.dots; trace_w; w; _ } = (Lazy.force exact_evaluator) x in
    let y =
      match w with
      | Some w -> Mat.scale (1.0 /. trace_w) w
      | None -> assert false
    in
    let _, p = covering_yields ~theta covering (cx covering x) in
    let gap = ref infinity in
    for i = 0 to n - 1 do
      gap :=
        Float.min !gap
          ((dots.(i) /. trace_w) -. ((1.0 +. eps) *. yields.(i)))
    done;
    if !gap > 0.0 then finished := Some (Infeasible { y; p; gap = !gap })
    (* else: the sketched estimate was noisy — keep iterating. *)
  in
  while !finished = None && !t < budget do
    incr t;
    let { Evaluator.dots; trace_w; _ } = evaluate x in
    let cov = cx covering x in
    let yields, _ = covering_yields ~theta covering cov in
    let updated = ref 0 in
    for i = 0 to n - 1 do
      (* Packing price per unit of covering progress: cheap coordinates
         are those whose spectral cost does not exceed (1+eps) times
         their covering yield. *)
      if dots.(i) /. trace_w <= (1.0 +. eps) *. yields.(i) then begin
        x.(i) <- x.(i) *. (1.0 +. params.Params.alpha);
        incr updated
      end
    done;
    if !updated = 0 then certify_infeasible yields
    else if !t mod check_every = 0 then check_feasible ()
  done;
  let outcome = match !finished with Some o -> o | None -> Unknown in
  { outcome; iterations = !t }

type coverage_optimum = {
  level : float;
  x : float array;
  infeasible_above : float;
  calls : int;
}

let max_coverage ?pool ?backend ?max_calls ~eps inst =
  let n = Instance.num_constraints inst.packing in
  let factors = Instance.factors inst.packing in
  (* Per-coordinate packing caps x_i <= 1/lambda_max(A_i) bound the best
     possible coverage of every row from above; the best coverage of a
     single coordinate pushed to its cap bounds it from below. *)
  let caps =
    Array.map (fun f -> 1.0 /. Psdp_sparse.Factored.lambda_max f) factors
  in
  let row_upper row =
    let s = ref 0.0 in
    Array.iteri (fun i c -> s := !s +. (c *. caps.(i))) row;
    !s
  in
  let hi0 =
    Array.fold_left (fun acc row -> Float.min acc (row_upper row)) infinity
      inst.covering
  in
  (* Lower start: the single best coordinate, worst row. *)
  let lo0 =
    Array.fold_left
      (fun acc row ->
        let best = ref 0.0 in
        Array.iteri
          (fun i c -> best := Float.max !best (c *. caps.(i)))
          row;
        Float.min acc !best)
      infinity inst.covering
  in
  let lo0 = Float.max 1e-12 (lo0 /. float_of_int n) in
  let budget = match max_calls with Some b -> b | None -> 24 in
  let lo = ref lo0 and hi = ref (Float.max hi0 lo0) in
  let witness = ref (Array.make n 0.0) in
  let level = ref 0.0 in
  let calls = ref 0 in
  while !hi > (1.0 +. eps) *. !lo && !calls < budget do
    incr calls;
    let t = sqrt (!lo *. !hi) in
    let scaled_covering =
      Array.map (Array.map (fun c -> c /. t)) inst.covering
    in
    let mi = { inst with covering = scaled_covering } in
    match (solve ?pool ?backend ~eps mi).outcome with
    | Feasible { x } ->
        witness := x;
        level := t;
        lo := t
    | Infeasible _ | Unknown -> hi := t
  done;
  { level = !level; x = !witness; infeasible_above = !hi; calls = !calls }
