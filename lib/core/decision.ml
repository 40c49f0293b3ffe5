open Psdp_prelude
open Psdp_linalg
module Profiler = Psdp_obs.Profiler

let log_src = Logs.Src.create "psdp.decision" ~doc:"decisionPSDP (Alg 3.1)"

module Log = (val Logs.src_log log_src : Logs.LOG)

type backend = Evaluator.backend =
  | Exact
  | Sketched of { seed : int; sketch_dim : int option }

type mode = Faithful | Adaptive of { check_every : int }

type iter_stats = {
  t : int;
  l1 : float;
  trace_w : float;
  updated : int;
  degree : int;
}

type primal_solution = { dots : float array; y : Mat.t option }
type dual_solution = { x : float array; raw : float array }
type outcome = Primal of primal_solution | Dual of dual_solution
type result = { outcome : outcome; iterations : int; params : Params.t }

let initial_point inst =
  let n = Instance.num_constraints inst in
  let traces = Instance.traces inst in
  Array.init n (fun i -> 1.0 /. (float_of_int n *. traces.(i)))

let solve ?pool ?(backend = Exact) ?(mode = Adaptive { check_every = 10 })
    ?(prof = Profiler.disabled) ?on_iter ~eps inst =
  let n = Instance.num_constraints inst in
  let m = Instance.dim inst in
  let params = Params.of_eps ~eps ~n in
  let { Params.k_cap; alpha; r_cap; _ } = params in
  let evaluate = Evaluator.create ?pool ~backend ~params inst in
  let x = initial_point inst in
  let l1 = ref (Util.sum_array x) in
  (* Running primal average: Y = (1/t) Σ_τ W⁽τ⁾/Tr W⁽τ⁾, tracked through
     the constraint values Aᵢ•Y; the exact backend also materializes Y. *)
  let avg_dots = Array.make n 0.0 in
  let y_acc =
    match backend with Exact -> Some (Mat.create m m) | Sketched _ -> None
  in
  let t = ref 0 in
  let finish_primal () =
    let steps = float_of_int (max 1 !t) in
    let dots = Array.map (fun d -> d /. steps) avg_dots in
    let y = Option.map (fun acc -> Mat.scale (1.0 /. steps) acc) y_acc in
    Primal { dots; y }
  in
  let paper_dual () =
    let scale = 1.0 /. ((1.0 +. (10.0 *. eps)) *. k_cap) in
    Dual { x = Array.map (fun v -> v *. scale) x; raw = Array.copy x }
  in
  (* The dual check picks its own path from m and r (Certificate): an
     exact λmax from the smaller Gram side, or past the dense cutoff a
     Lanczos estimate. The exit only pulls the iterate back onto
     λmax <= 1, never scales it up: it answers once x itself carries mass
     1 − ε. Scaling every answer up to λmax = 1 is the bisection's job
     (Solver), so that each dual answer raises its [lo]. *)
  let early : outcome option ref = ref None in
  let check_early () =
    (* Sound early exits: both candidates are verified certificates. *)
    let dual_cert = Certificate.shrink_dual inst x in
    if
      dual_cert.Certificate.feasible
      && dual_cert.Certificate.value >= 1.0 -. eps
    then begin
      Log.debug (fun m ->
          m "t=%d: dual certificate fired (value %.4f)" !t
            dual_cert.Certificate.value);
      early := Some (Dual { x = dual_cert.Certificate.x; raw = Array.copy x })
    end
    else begin
      let steps = float_of_int (max 1 !t) in
      let dots = Array.map (fun d -> d /. steps) avg_dots in
      if !t > 0 && Util.min_array dots >= 1.0 -. eps then begin
        Log.debug (fun m ->
            m "t=%d: primal certificate fired (min dot %.4f)" !t
              (Util.min_array dots));
        early := Some (finish_primal ())
      end
      else
        Log.debug (fun m ->
            m "t=%d: no certificate yet (dual %.4f, primal min %.4f, l1 %.4f)"
              !t dual_cert.Certificate.value
              (if !t > 0 then Util.min_array dots else Float.nan)
              !l1)
    end
  in
  while !early = None && !l1 <= k_cap && !t < r_cap do
    incr t;
    let it_span = Profiler.enter prof "iteration" in
    let { Evaluator.dots; trace_w; degree; w } = evaluate ~span:it_span x in
    (match (y_acc, w) with
    | Some acc, Some w -> Mat.axpy acc ~alpha:(1.0 /. trace_w) w
    | _ -> ());
    (* B⁽ᵗ⁾ = { i : W•Aᵢ <= (1+ε)·Tr W } — the constraints whose penalty
       is still small get their weight multiplied by (1+α). *)
    let updated = ref 0 in
    Profiler.with_span it_span "select" (fun () ->
        let threshold = (1.0 +. eps) *. trace_w in
        for i = 0 to n - 1 do
          if dots.(i) <= threshold then begin
            x.(i) <- x.(i) *. (1.0 +. alpha);
            incr updated
          end;
          avg_dots.(i) <- avg_dots.(i) +. (dots.(i) /. trace_w)
        done;
        l1 := Util.sum_array x);
    (match on_iter with
    | Some f -> f { t = !t; l1 = !l1; trace_w; updated = !updated; degree }
    | None -> ());
    (match mode with
    | Adaptive { check_every } when !t mod check_every = 0 ->
        Profiler.with_span it_span "cert" check_early
    | Adaptive _ | Faithful -> ());
    Profiler.exit it_span
  done;
  let outcome =
    match !early with
    | Some o -> o
    | None ->
        if !l1 > k_cap then begin
          Log.info (fun m ->
              m "faithful dual exit at t=%d (l1 %.4f > K %.4f)" !t !l1 k_cap);
          paper_dual ()
        end
        else begin
          Log.info (fun m -> m "faithful primal exit at t=%d (R=%d)" !t r_cap);
          finish_primal ()
        end
  in
  { outcome; iterations = !t; params }
