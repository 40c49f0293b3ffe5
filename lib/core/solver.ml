open Psdp_prelude
open Psdp_linalg
open Psdp_sparse

let log_src = Logs.Src.create "psdp.solver" ~doc:"approxPSDP (Thm 1.1)"

module Log = (val Logs.src_log log_src : Logs.LOG)

type packing_result = {
  x : float array;
  value : float;
  upper_bound : float;
  primal_dots : float array option;
  primal_z : Mat.t option;
  decision_calls : int;
  total_iterations : int;
  dropped_constraints : int;
}

type warm_start = { upper : float option; x0 : float array option }

let cold = { upper = None; x0 = None }

type bisection_state = {
  lo : float;
  hi : float;
  incumbent : float array;
  incumbent_value : float;
  calls_done : int;
  iterations_done : int;
  dropped : int;
}

let default_max_calls ~eps ~ratio =
  (* Geometric bisection halves the log-gap per call; this budget reaches
     a (1+eps) bracket with slack for noisy certificate values. *)
  let log_gap = Float.max 1e-9 (log ratio) in
  let halvings = Util.log2 (log_gap /. log (1.0 +. (eps /. 2.0))) in
  max 4 (int_of_float (Float.ceil halvings) + 8)

let solve_packing ?pool ?backend ?mode ?max_calls ?(warm = cold) ?resume
    ?checkpoint ?(prof = Psdp_obs.Profiler.disabled) ?on_iter ?on_call ~eps
    inst =
  if eps <= 0.0 || eps >= 1.0 then
    invalid_arg "Solver.solve_packing: eps must lie in (0,1)";
  let n = Instance.num_constraints inst in
  let m = Instance.dim inst in
  let factors = Instance.factors inst in
  let traces = Instance.traces inst in
  let lmaxes = Array.map Factored.lambda_max factors in
  Array.iteri
    (fun i l ->
      if l <= 0.0 then
        invalid_arg
          (Printf.sprintf "Solver.solve_packing: constraint %d has λmax <= 0" i))
    lmaxes;
  (* Bracket: best single-coordinate solution from below; the sum of
     single-coordinate optima and the trace bound from above. *)
  let best_i = ref 0 in
  Array.iteri (fun i l -> if l < lmaxes.(!best_i) then best_i := i) lmaxes;
  let lo0 = 1.0 /. lmaxes.(!best_i) in
  let sum_bound =
    Util.sum_array (Array.map (fun l -> 1.0 /. l) lmaxes)
  in
  let trace_bound = float_of_int m /. Util.min_array traces in
  let hi0 = Float.max lo0 (Float.min sum_bound trace_bound) in
  let incumbent_x = Array.make n 0.0 in
  incumbent_x.(!best_i) <- lo0;
  let incumbent_value = ref lo0 in
  let lo = ref lo0 and hi = ref hi0 in
  (* Warm start: a candidate dual is re-verified before adoption (so the
     returned [value] stays certified no matter what the caller hands us);
     the upper bound is taken on trust — it must come from a certified
     solve of this same instance, e.g. the engine's result cache. *)
  let creep_budget = ref 0 in
  (match warm.x0 with
  | None -> ()
  | Some x0 ->
      if Array.length x0 <> n then
        invalid_arg "Solver.solve_packing: warm x0 has wrong length";
      let cert = Certificate.rescale_dual inst x0 in
      if cert.Certificate.feasible && cert.Certificate.value > !incumbent_value
      then begin
        incumbent_value := cert.Certificate.value;
        Array.blit cert.Certificate.x 0 incumbent_x 0 n;
        lo := Float.max !lo cert.Certificate.value;
        creep_budget := 2
      end);
  (match warm.upper with
  | None -> ()
  | Some u ->
      if Float.is_finite u && u > 0.0 then
        hi := Float.max !lo (Float.min !hi u));
  (* Resume from a checkpoint of an interrupted solve of this same
     instance. The incumbent is re-verified exactly like a warm x0; the
     saved upper end of the bracket is trusted like [warm.upper] (the
     caller is responsible for validating the snapshot's provenance —
     the engine matches instance digests before handing it to us). *)
  (match resume with
  | None -> ()
  | Some s ->
      if Array.length s.incumbent <> n then
        invalid_arg "Solver.solve_packing: resume incumbent has wrong length";
      let cert = Certificate.rescale_dual inst s.incumbent in
      if cert.Certificate.feasible && cert.Certificate.value > !incumbent_value
      then begin
        incumbent_value := cert.Certificate.value;
        Array.blit cert.Certificate.x 0 incumbent_x 0 n
      end;
      lo := Float.max !lo !incumbent_value;
      if Float.is_finite s.hi && s.hi > 0.0 then
        hi := Float.max !lo (Float.min !hi s.hi));
  let primal_dots = ref None and primal_z = ref None in
  let base_calls, base_iters, base_dropped =
    match resume with
    | None -> (0, 0, 0)
    | Some s -> (s.calls_done, s.iterations_done, s.dropped)
  in
  let calls = ref base_calls
  and iters = ref base_iters
  and dropped_total = ref base_dropped in
  let budget =
    (* The call budget covers the remaining work, not the lifetime total:
       a resumed solve gets as many fresh calls as a cold one would. *)
    match max_calls with
    | Some c -> c
    | None -> default_max_calls ~eps ~ratio:(!hi /. !lo)
  in
  let eps_dec = eps /. 4.0 in
  let clamp_cutoff = float_of_int n ** 3.0 in
  Log.info (fun m ->
      m "bracket [%.6g, %.6g], budget %d decision calls" !lo !hi budget);
  while !hi > (1.0 +. eps) *. !lo && !calls - base_calls < budget do
    incr calls;
    (* Probe placement. Geometric bisection probes sqrt(lo·hi) — optimal
       when nothing is known about OPT's position in the bracket. A
       verified warm incumbent changes that: lineage warm starts hand us
       lo ≈ OPT(1−δ) for small drift δ, while hi is still the trivial
       bound, and sqrt(lo·hi) then lands deep in the expensive
       covering-side band well above OPT (per-call decision cost peaks
       just past OPT — see EXP16). So while the warm {e creep budget}
       lasts, probe v = lo·√(1+ε), just above the incumbent. If the
       lineage hypothesis holds, a creep probe's covering certificate
       collapses hi to ≈ v and the solve ends within a call or two; if
       it answers dual instead (OPT drifted further up), lo advances
       past the probe and the next creep fires from there. Two dual
       answers exhaust the budget — the incumbent was not near OPT
       after all — and geometric bisection resumes having spent two
       cheap dual-side calls that both advanced lo. Soundness is
       untouched: only the probe position changes, and every bound
       still comes from a verified certificate. *)
    let v =
      if !creep_budget > 0 then begin
        decr creep_budget;
        Float.min (sqrt (!lo *. !hi)) (!lo *. sqrt (1.0 +. eps))
      end
      else sqrt (!lo *. !hi)
    in
    (match on_call with
    | Some f -> f ~call:!calls ~threshold:v
    | None -> ());
    Psdp_fault.Failpoint.hit "solver.decision_call";
    let dc_span = Psdp_obs.Profiler.enter prof "decision_call" in
    Log.debug (fun m ->
        m "call %d: threshold %.6g (bracket [%.6g, %.6g])" !calls v !lo !hi);
    (* Lemma 2.2 trace clamp: at threshold v, constraints whose rescaled
       trace exceeds n³ can carry only O(m/n³) dual mass each. *)
    let kept = ref [] and slack = ref 0.0 in
    for i = n - 1 downto 0 do
      if v *. traces.(i) <= clamp_cutoff then kept := i :: !kept
      else slack := !slack +. (float_of_int m /. (v *. traces.(i)))
    done;
    let kept = Array.of_list !kept in
    let dropped = n - Array.length kept in
    dropped_total := !dropped_total + dropped;
    let scaled =
      Instance.of_factors
        (Array.map (fun i -> Factored.scale v factors.(i)) kept)
    in
    let res =
      Decision.solve ?pool ?backend ?mode ~prof:dc_span ?on_iter ~eps:eps_dec
        scaled
    in
    iters := !iters + res.Decision.iterations;
    (match res.Decision.outcome with
    | Decision.Dual { x = xd; _ } ->
        (* x feasible for {v·Aᵢ} ⇒ v·x feasible for {Aᵢ}. Verify against
           the full (unclamped) instance and keep the measured value; on
           the dense path rescale_dual scales the answer up to λmax = 1,
           so [lo] rises to what its direction certifies. *)
        let candidate = Array.make n 0.0 in
        Array.iteri (fun k i -> candidate.(i) <- v *. xd.(k)) kept;
        let cert = Certificate.rescale_dual inst candidate in
        if cert.Certificate.feasible && cert.Certificate.value > !incumbent_value
        then begin
          incumbent_value := cert.Certificate.value;
          Array.blit cert.Certificate.x 0 incumbent_x 0 n
        end;
        lo := Float.max !lo !incumbent_value
    | Decision.Primal { dots; y } ->
        (* Tr Y = 1 and (v·Aᵢ)•Y >= min_dot for kept i ⇒ in rescaled
           units OPT <= 1/min_dot plus the clamp slack. *)
        let min_dot = Util.min_array dots in
        if min_dot > 0.0 then begin
          let hi_cand = v *. ((1.0 /. min_dot) +. !slack) in
          if hi_cand < !hi then begin
            hi := Float.max hi_cand !lo;
            (* Covering witness on the original scale: Z = (v/min_dot)·Y,
               Aᵢ•Z = dotsᵢ/min_dot >= 1 for kept constraints. *)
            let full_dots = Array.make n Float.nan in
            Array.iteri
              (fun k i -> full_dots.(i) <- dots.(k) /. min_dot)
              kept;
            primal_dots := Some full_dots;
            primal_z :=
              Option.map (fun y -> Mat.scale (v /. min_dot) y) y
          end
        end);
    Psdp_obs.Profiler.exit dc_span;
    (match checkpoint with
    | Some f ->
        f
          {
            lo = !lo;
            hi = !hi;
            incumbent = Array.copy incumbent_x;
            incumbent_value = !incumbent_value;
            calls_done = !calls;
            iterations_done = !iters;
            dropped = !dropped_total;
          }
    | None -> ())
  done;
  {
    x = incumbent_x;
    value = !incumbent_value;
    upper_bound = !hi;
    primal_dots = !primal_dots;
    primal_z = !primal_z;
    decision_calls = !calls;
    total_iterations = !iters;
    dropped_constraints = !dropped_total;
  }

type covering_result = {
  z : Mat.t;
  objective : float;
  lower_bound : float;
  packing : packing_result;
}

let solve_covering ?pool ?(backend = Decision.Exact) ?mode ?max_calls ~eps inst =
  (match backend with
  | Decision.Exact -> ()
  | Decision.Sketched _ ->
      invalid_arg
        "Solver.solve_covering: the covering witness requires the exact \
         backend");
  let packing = solve_packing ?pool ~backend ?mode ?max_calls ~eps inst in
  (* Z = I/min_traces is always feasible: Aᵢ•Z = Tr Aᵢ/minⱼTr Aⱼ >= 1. *)
  let fallback =
    Mat.scale
      (1.0 /. Util.min_array (Instance.traces inst))
      (Mat.identity (Instance.dim inst))
  in
  let z =
    match packing.primal_z with
    | Some z when Mat.trace z <= Mat.trace fallback -> z
    | Some _ | None -> fallback
  in
  { z; objective = Mat.trace z; lower_bound = packing.value; packing }

type general_result = {
  packing : packing_result;
  y : Mat.t option;
  objective_value : float option;
  dual : float array;
  dual_value : float;
}

let solve_general ?pool ?backend ?mode ?max_calls ~eps g =
  let norm = Normalize.normalize g in
  let packing =
    solve_packing ?pool ?backend ?mode ?max_calls ~eps norm.Normalize.instance
  in
  let y = Option.map (Normalize.denormalize_primal norm) packing.primal_z in
  let objective_value = Option.map (Normalize.primal_objective g) y in
  let dual = Normalize.denormalize_dual norm packing.x in
  let dual_value = Normalize.dual_objective g dual in
  { packing; y; objective_value; dual; dual_value }
