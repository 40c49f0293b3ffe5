open Psdp_prelude

type result = {
  outcome : Decision.outcome;
  iterations : int;
  phases : int;
  params : Params.t;
}

let solve ?pool ?(backend = Decision.Exact) ?phase_growth ?(check_every = 10)
    ~eps inst =
  let n = Instance.num_constraints inst in
  let params = Params.of_eps ~eps ~n in
  let { Params.k_cap; alpha; r_cap; _ } = params in
  let phase_growth =
    match phase_growth with
    | Some g ->
        if g <= 0.0 then invalid_arg "Phased.solve: phase_growth must be > 0";
        g
    | None -> eps /. 2.0
  in
  let evaluate = Evaluator.create ?pool ~backend ~params inst in
  let x = Decision.initial_point inst in
  let l1 = ref (Util.sum_array x) in
  let avg_dots = Array.make n 0.0 in
  let samples = ref 0 in
  let t = ref 0 and phases = ref 0 in
  let early : Decision.outcome option ref = ref None in
  let finish_primal () =
    let steps = float_of_int (max 1 !samples) in
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
    else if !samples > 0 then begin
      let steps = float_of_int !samples in
      let dots = Array.map (fun d -> d /. steps) avg_dots in
      if Util.min_array dots >= 1.0 -. eps then early := Some (finish_primal ())
    end
  in
  while !early = None && !l1 <= k_cap && !t < r_cap do
    (* Phase start: one exponential evaluation fixes the update set. *)
    incr phases;
    let { Evaluator.dots; trace_w; _ } = evaluate x in
    let threshold = (1.0 +. eps) *. trace_w in
    let bucket = ref [] in
    for i = n - 1 downto 0 do
      if dots.(i) <= threshold then bucket := i :: !bucket;
      avg_dots.(i) <- avg_dots.(i) +. (dots.(i) /. trace_w)
    done;
    incr samples;
    (match !bucket with
    | [] ->
        (* No coordinate is cheap under the fresh penalties: the averaged
           probability matrix is converging to a covering certificate;
           force a certificate check now (and count the step). *)
        incr t;
        check_early ();
        if !early = None && !samples * check_every >= r_cap then
          early := Some (finish_primal ())
    | bucket_list ->
        (* Inside the phase: reuse the stale set until the mass grows by
           (1+phase_growth), a certificate fires, or a cap is reached. *)
        let phase_cap = !l1 *. (1.0 +. phase_growth) in
        let continue_phase = ref true in
        while
          !continue_phase && !early = None && !l1 <= k_cap && !t < r_cap
        do
          incr t;
          List.iter
            (fun i -> x.(i) <- x.(i) *. (1.0 +. alpha))
            bucket_list;
          l1 := Util.sum_array x;
          if !l1 > phase_cap then continue_phase := false;
          if !t mod check_every = 0 then check_early ()
        done);
    ()
  done;
  let outcome =
    match !early with
    | Some o -> o
    | None ->
        if !l1 > k_cap then begin
          (* Stale in-phase updates void Lemma 3.2's a-priori scaling, so
             the exit dual is rescaled by the *measured* spectrum instead
             of the paper constant — feasible by construction. *)
          let cert = Certificate.rescale_dual inst x in
          Decision.Dual { x = cert.Certificate.x; raw = Array.copy x }
        end
        else finish_primal ()
  in
  { outcome; iterations = !t; phases = !phases; params }
