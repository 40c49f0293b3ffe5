open Psdp_prelude

type result = {
  outcome : Decision.outcome;
  iterations : int;
  params : Params.t;
}

(* Step multiplier for penalty ratio r under threshold (1+eps): buckets
   are geometric in (1+eps)/r, i.e. bucket k collects ratios in
   ((1+eps)/2^(k+1), (1+eps)/2^k], and bucket k steps by (1 + 2^k·α)
   capped at (1 + boost·α). *)
let step_multiplier ~eps ~alpha ~boost r =
  let threshold = 1.0 +. eps in
  if r > threshold then 1.0
  else begin
    let ratio = threshold /. Float.max r 1e-300 in
    let bucket = int_of_float (Util.log2 ratio) in
    let factor = Float.min boost (float_of_int (1 lsl max 0 (min 20 bucket))) in
    1.0 +. (factor *. alpha)
  end

let solve ?pool ?(backend = Decision.Exact) ?(boost = 4.0)
    ?(check_every = 10) ~eps inst =
  if boost < 1.0 then invalid_arg "Bucketed.solve: boost must be >= 1";
  let n = Instance.num_constraints inst in
  let params = Params.of_eps ~eps ~n in
  let { Params.k_cap; alpha; r_cap; _ } = params in
  let evaluate = Evaluator.create ?pool ~backend ~params inst in
  let x = Decision.initial_point inst in
  let l1 = ref (Util.sum_array x) in
  let avg_dots = Array.make n 0.0 in
  let t = ref 0 in
  let early : Decision.outcome option ref = ref None in
  let finish_primal () =
    let steps = float_of_int (max 1 !t) in
    Decision.Primal
      { dots = Array.map (fun d -> d /. steps) avg_dots; y = None }
  in
  let check_early () =
    let dual_cert = Certificate.shrink_dual inst x in
    if
      dual_cert.Certificate.feasible
      && dual_cert.Certificate.value >= 1.0 -. eps
    then
      early :=
        Some (Decision.Dual { x = dual_cert.Certificate.x; raw = Array.copy x })
    else if !t > 0 then begin
      let steps = float_of_int !t in
      let dots = Array.map (fun d -> d /. steps) avg_dots in
      if Util.min_array dots >= 1.0 -. eps then early := Some (finish_primal ())
    end
  in
  while !early = None && !l1 <= k_cap && !t < r_cap do
    incr t;
    let { Evaluator.dots; trace_w; _ } = evaluate x in
    for i = 0 to n - 1 do
      let r = dots.(i) /. trace_w in
      x.(i) <- x.(i) *. step_multiplier ~eps ~alpha ~boost r;
      avg_dots.(i) <- avg_dots.(i) +. r
    done;
    l1 := Util.sum_array x;
    if !t mod check_every = 0 then check_early ()
  done;
  let outcome =
    match !early with
    | Some o -> o
    | None ->
        if !l1 > k_cap then begin
          (* Boosted steps void the paper-constant scaling: rescale by the
             measured spectrum for a feasible-by-construction dual. *)
          let cert = Certificate.rescale_dual inst x in
          Decision.Dual { x = cert.Certificate.x; raw = Array.copy x }
        end
        else finish_primal ()
  in
  { outcome; iterations = !t; params }
