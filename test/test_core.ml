(* Tests for the paper's algorithms: parameters, certificates,
   normalization, decisionPSDP (Alg 3.1), approxPSDP (Thm 1.1), the
   width-dependent baseline and the positive-LP solver. *)

open Psdp_prelude
open Psdp_linalg
open Psdp_core
open Psdp_instances

(* ------------------------------------------------------------------ *)
(* Params *)

let test_params_formulas () =
  let p = Params.of_eps ~eps:0.1 ~n:100 in
  let ln_n = log 100.0 in
  Alcotest.(check (float 1e-9)) "K" ((1.0 +. ln_n) /. 0.1) p.Params.k_cap;
  Alcotest.(check (float 1e-9)) "alpha"
    (0.1 /. (p.Params.k_cap *. 2.0))
    p.Params.alpha;
  Alcotest.(check bool) "R = O(eps^-3 log^2 n)" true
    (p.Params.r_cap
    = int_of_float (Float.ceil (32.0 /. (0.1 *. p.Params.alpha) *. ln_n)))

let test_params_scaling_in_eps () =
  (* R should scale like eps^-3 (Theorem 3.1). *)
  (* R = 32(1+10ε)(1+ln n)·ln n/ε³: halving ε multiplies R by
     8·(1+5ε)/(1+10ε) ≈ 6 at ε = 0.1. *)
  let r eps = float_of_int (Params.of_eps ~eps ~n:50).Params.r_cap in
  let ratio = r 0.05 /. r 0.1 in
  if ratio < 5.0 || ratio > 10.0 then
    Alcotest.failf "halving eps should ~6-8x R, got %gx" ratio

let test_params_validation () =
  Alcotest.check_raises "eps = 0"
    (Invalid_argument "Params.of_eps: eps must lie in (0,1)") (fun () ->
      ignore (Params.of_eps ~eps:0.0 ~n:5));
  Alcotest.check_raises "n = 0"
    (Invalid_argument "Params.of_eps: n must be >= 1") (fun () ->
      ignore (Params.of_eps ~eps:0.1 ~n:0))

(* ------------------------------------------------------------------ *)
(* Instance *)

let test_instance_validation () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Instance.of_factors: no constraints") (fun () ->
      ignore (Instance.of_factors [||]));
  let indef = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  (match Instance.of_dense [| indef |] with
  | (_ : Instance.t) -> Alcotest.fail "accepted an indefinite constraint"
  | exception Invalid_argument _ -> ());
  let zero = Mat.create 3 3 in
  match Instance.of_dense [| zero |] with
  | (_ : Instance.t) -> Alcotest.fail "accepted a zero constraint"
  | exception Invalid_argument _ -> ()

let test_instance_width () =
  let inst, _ = Diagonal.scaled_identities [| 0.5; 3.0 |] ~dim:4 in
  Alcotest.(check (float 1e-9)) "width = max c" 3.0 (Instance.width inst)

let test_instance_scale () =
  let inst, _ = Diagonal.scaled_identities [| 1.0 |] ~dim:3 in
  let scaled = Instance.scale 2.0 inst in
  Alcotest.(check (float 1e-9)) "scaled width" 2.0 (Instance.width scaled);
  Alcotest.(check (float 1e-9)) "scaled trace" 6.0 (Instance.traces scaled).(0)

(* ------------------------------------------------------------------ *)
(* Certificate *)

let test_certificate_dual () =
  let inst, _ = Diagonal.scaled_identities [| 1.0; 2.0 |] ~dim:3 in
  (* x = (1/2, 1/4): Σ xᵢcᵢ = 1 exactly. *)
  let cert = Certificate.check_dual inst [| 0.5; 0.25 |] in
  Alcotest.(check bool) "feasible" true cert.Certificate.feasible;
  Alcotest.(check (float 1e-9)) "value" 0.75 cert.Certificate.value;
  Alcotest.(check (float 1e-6)) "lambda" 1.0 cert.Certificate.lambda_max;
  let infeasible = Certificate.check_dual inst [| 2.0; 0.0 |] in
  Alcotest.(check bool) "infeasible detected" false
    infeasible.Certificate.feasible

let test_certificate_rescale () =
  let inst, _ = Diagonal.scaled_identities [| 1.0 |] ~dim:2 in
  let cert = Certificate.rescale_dual inst [| 5.0 |] in
  Alcotest.(check bool) "feasible after rescale" true cert.Certificate.feasible;
  Alcotest.(check (float 1e-6)) "value 1" 1.0 cert.Certificate.value

(* An independent dense λmax of Σ xᵢAᵢ, from the m × m matrix. *)
let dense_psi_lambda_max inst x =
  let m = Instance.dim inst in
  let psi = Mat.create m m in
  Array.iteri
    (fun i a -> if x.(i) <> 0.0 then Mat.axpy psi ~alpha:x.(i) a)
    (Instance.dense_mats inst);
  Eig.lambda_max psi

(* Past the dense cutoff on both sides (m = 170, r = 6·30 = 180) the
   check is a Lanczos estimate: it must track the dense value, and since
   it may under-report, rescale_dual must never scale up on it. *)
let test_certificate_lanczos_matches_dense () =
  let rng = Rng.create 11 in
  let inst =
    Random_psd.factored ~rng ~dim:170 ~n:6 ~rank:30 ~density:0.5 ()
  in
  let x = Array.init 6 (fun _ -> Rng.uniform rng) in
  let dense = dense_psi_lambda_max inst x in
  let lan = Certificate.psi_lambda_max inst x in
  if Float.abs (dense -. lan) > 0.02 *. dense then
    Alcotest.failf "lanczos %g vs dense %g" lan dense;
  let small = Array.map (fun v -> v *. 0.5 /. lan) x in
  let kept = Certificate.rescale_dual inst small in
  Alcotest.(check bool) "estimate below 1: x unchanged" true
    (kept.Certificate.x = small);
  Alcotest.(check (float 1e-12)) "value unscaled" (Util.sum_array small)
    kept.Certificate.value;
  let big = Array.map (fun v -> v *. 3.0 /. lan) x in
  let down = Certificate.rescale_dual inst big in
  Alcotest.(check bool) "estimate above 1: scaled down, not past 1" true
    (down.Certificate.value < Util.sum_array big
    && down.Certificate.value > Util.sum_array small)

(* decide-large's shape: m = 192 antennas, 64 rank-one users, so the
   check solves the 64 × 64 Gram GᵀG. *)
let decide_large_shape () =
  let rng = Rng.create 2012 in
  let inst = Beamforming.instance ~rng ~antennas:192 ~users:64 () in
  (inst, Array.init 64 (fun _ -> Rng.uniform rng))

let test_certificate_exact_smaller_side () =
  let inst, x = decide_large_shape () in
  let dense = dense_psi_lambda_max inst x in
  let got = Certificate.psi_lambda_max inst x in
  if Float.abs (got -. dense) > 1e-12 *. dense then
    Alcotest.failf "Gram-side lambda_max %.17g vs dense %.17g" got dense

let test_certificate_rescale_up_and_down () =
  let inst, x = decide_large_shape () in
  let lmax = dense_psi_lambda_max inst x in
  List.iter
    (fun (label, target) ->
      let x = Array.map (fun v -> v *. target /. lmax) x in
      let l = Certificate.psi_lambda_max inst x in
      let cert = Certificate.rescale_dual inst x in
      let want = Util.sum_array x /. l in
      if Float.abs (cert.Certificate.value -. want) > 1e-12 *. want then
        Alcotest.failf "%s: value %.17g, want ||x||_1/lambda_max = %.17g" label
          cert.Certificate.value want;
      Alcotest.(check bool) (label ^ ": feasible") true cert.Certificate.feasible;
      let check = dense_psi_lambda_max inst cert.Certificate.x in
      if check > 1.0 +. 1e-9 then
        Alcotest.failf "%s: dense check of the scaled dual reads %.17g" label
          check)
    [ ("lambda_max < 1, scaled up", 0.4); ("lambda_max > 1, scaled down", 2.5) ]

(* shrink_dual only ever pulls x back onto λmax <= 1 (Aᵢ = cᵢ·I here, so
   λmax = Σ xᵢcᵢ). *)
let test_certificate_shrink () =
  let inst, _ = Diagonal.scaled_identities [| 1.0; 2.0 |] ~dim:3 in
  let x = [| 0.25; 0.125 |] in
  let kept = Certificate.shrink_dual inst x in
  Alcotest.(check bool) "lambda_max 0.5: x unchanged" true (kept.Certificate.x = x);
  Alcotest.(check (float 1e-12)) "value unscaled" 0.375 kept.Certificate.value;
  Alcotest.(check (float 1e-12)) "lambda_max reported" 0.5
    kept.Certificate.lambda_max;
  let down = Certificate.shrink_dual inst [| 2.0; 1.0 |] in
  Alcotest.(check (float 1e-12)) "lambda_max 4: scaled down" 0.75
    down.Certificate.value;
  Alcotest.(check (float 1e-12)) "onto the boundary" 1.0
    down.Certificate.lambda_max;
  Alcotest.(check bool) "feasible" true down.Certificate.feasible

let test_certificate_primal () =
  let inst, _ = Diagonal.scaled_identities [| 2.0 |] ~dim:2 in
  (* Y = I/2: Tr = 1, A•Y = 2·(1/2 + 1/2)/... A = 2I so A•Y = 2·Tr(Y)/1 = 2. *)
  let y = Mat.scale 0.5 (Mat.identity 2) in
  let cert = Certificate.check_primal inst y in
  Alcotest.(check bool) "feasible" true cert.Certificate.feasible;
  Alcotest.(check (float 1e-9)) "dot" 2.0 cert.Certificate.min_dot;
  let bad = Certificate.primal_of_dots ~trace:1.0 [| 0.5 |] in
  Alcotest.(check bool) "low dot rejected" false bad.Certificate.feasible

let test_certificate_rejects_negative () =
  let inst, _ = Diagonal.scaled_identities [| 1.0 |] ~dim:2 in
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Certificate: negative weight x_0") (fun () ->
      ignore (Certificate.check_dual inst [| -1.0 |]))

(* ------------------------------------------------------------------ *)
(* Normalize (Appendix A) *)

let random_general rng m n =
  let psd k =
    let g = Mat.init m (m + 1) (fun _ _ -> Rng.gaussian rng) in
    Mat.add (Mat.mul g (Mat.transpose g)) (Mat.scale k (Mat.identity m))
  in
  Instance.general ~objective:(psd 0.5)
    ~constraints:(Array.init n (fun _ -> (psd 0.0, 0.5 +. Rng.uniform rng)))

let test_normalize_preserves_feasibility () =
  let rng = Rng.create 13 in
  let g = random_general rng 5 4 in
  let norm = Normalize.normalize g in
  (* A feasible covering Z for the normalized program maps to a feasible Y
     for the original with equal objective. Use Z = c·I with c large
     enough. *)
  let inst = norm.Normalize.instance in
  let mats = Instance.dense_mats inst in
  let worst =
    Array.fold_left (fun acc b -> Float.min acc (Mat.trace b)) infinity mats
  in
  ignore worst;
  (* Z = c·I is feasible once c·λmin... use c = 1/min over i of λmin is
     fragile; instead use Z = c·I with c = max_i 1/(Bᵢ•I/…)…
     simpler: Bᵢ•(cI) = c·Tr Bᵢ >= 1 ⟺ c >= 1/minᵢ Tr Bᵢ — wrong
     direction for PSD dot; actually Bᵢ•I = Tr Bᵢ, so this is exact. *)
  let c = 1.0 /. Array.fold_left (fun acc b -> Float.min acc (Mat.trace b)) infinity mats in
  let z = Mat.scale c (Mat.identity 5) in
  (* Check normalized feasibility. *)
  Array.iteri
    (fun i b ->
      if Mat.dot b z < 1.0 -. 1e-9 then Alcotest.failf "Z infeasible at %d" i)
    mats;
  let y = Normalize.denormalize_primal norm z in
  (* Original feasibility: Aᵢ•Y >= bᵢ. *)
  Array.iteri
    (fun i (a, b) ->
      let d = Mat.dot a y in
      if d < b -. 1e-6 then
        Alcotest.failf "constraint %d: %g < %g after denormalize" i d b)
    g.Instance.constraints;
  (* Objective preserved: C•Y = Tr Z. *)
  Alcotest.(check (float 1e-6)) "objective"
    (Mat.trace z)
    (Normalize.primal_objective g y)

let test_normalize_dual_direction () =
  let rng = Rng.create 17 in
  let g = random_general rng 4 3 in
  let norm = Normalize.normalize g in
  let inst = norm.Normalize.instance in
  (* Any feasible normalized dual maps to a feasible original dual with
     equal value. *)
  let x_norm = (Certificate.rescale_dual inst [| 0.3; 0.3; 0.3 |]).Certificate.x in
  let x_orig = Normalize.denormalize_dual norm x_norm in
  (* Feasibility: Σ xᵢAᵢ ≼ C ⟺ λmax(C^{-1}-congruence) <= 1; verify via
     eigenvalues of L⁻¹(Σ xᵢAᵢ)L⁻ᵀ. *)
  let m = Mat.rows g.Instance.objective in
  let sum = Mat.create m m in
  Array.iteri
    (fun i (a, _) -> Mat.axpy sum ~alpha:x_orig.(i) a)
    g.Instance.constraints;
  let l = Cholesky.factor g.Instance.objective in
  let lmax = Eig.lambda_max (Cholesky.congruence ~l sum) in
  Alcotest.(check bool) "dual feasible in original" true (lmax <= 1.0 +. 1e-6);
  Alcotest.(check (float 1e-9)) "value preserved"
    (Util.sum_array x_norm)
    (Normalize.dual_objective g x_orig)

let test_normalize_factored_matches_dense () =
  (* The pre-factored Appendix-A path must produce the same normalized
     constraints as the dense congruence. *)
  let rng = Rng.create 211 in
  let m = 6 in
  let c =
    let g = Mat.init m (m + 1) (fun _ _ -> Rng.gaussian rng) in
    Mat.add (Mat.mul g (Mat.transpose g)) (Mat.scale 0.5 (Mat.identity m))
  in
  let factored_constraints =
    Array.init 3 (fun _ ->
        let q = Mat.init m 2 (fun _ _ -> Rng.gaussian rng) in
        (Psdp_sparse.Factored.of_dense_factor q, 0.5 +. Rng.uniform rng))
  in
  let dense_constraints =
    Array.map
      (fun (f, b) -> (Psdp_sparse.Factored.to_dense f, b))
      factored_constraints
  in
  let via_dense =
    Normalize.normalize
      { Instance.objective = c; constraints = dense_constraints }
  in
  let via_factored = Normalize.normalize_factored ~objective:c ~constraints:factored_constraints in
  let md = Instance.dense_mats via_dense.Normalize.instance in
  let mf = Instance.dense_mats via_factored.Normalize.instance in
  Array.iteri
    (fun i a ->
      if not (Mat.equal ~tol:1e-7 a mf.(i)) then
        Alcotest.failf "normalized constraint %d differs (err %g)" i
          (Mat.max_abs (Mat.sub a mf.(i))))
    md;
  (* The factored path must preserve thin inner dimensions. *)
  Array.iteri
    (fun i f ->
      Alcotest.(check int)
        (Printf.sprintf "rank preserved %d" i)
        2
        (Psdp_sparse.Factored.inner_dim f))
    (Instance.factors via_factored.Normalize.instance)

let test_normalize_rejects_singular_objective () =
  let g =
    Instance.general
      ~objective:(Mat.identity 3)
      ~constraints:[| (Mat.identity 3, 1.0) |]
  in
  ignore g;
  (* Build a general instance manually with a singular C: Instance.general
     itself accepts PSD C; Normalize must reject. *)
  let singular = Mat.outer [| 1.0; 0.0; 0.0 |] in
  match
    Normalize.normalize
      {
        Instance.objective = singular;
        constraints = [| (Mat.identity 3, 1.0) |];
      }
  with
  | (_ : Normalize.t) -> Alcotest.fail "accepted singular C"
  | exception Invalid_argument _ -> ()

let test_general_drops_zero_thresholds () =
  let g =
    Instance.general
      ~objective:(Mat.identity 2)
      ~constraints:[| (Mat.identity 2, 0.0); (Mat.identity 2, 1.0) |]
  in
  Alcotest.(check int) "b=0 dropped" 1 (Array.length g.Instance.constraints)

(* ------------------------------------------------------------------ *)
(* Analysis *)

let test_analysis_report () =
  let inst, opt = Diagonal.scaled_identities [| 0.5; 2.0 |] ~dim:4 in
  let r = Analysis.analyze ~eps:0.1 inst in
  Alcotest.(check int) "dim" 4 r.Analysis.dim;
  Alcotest.(check int) "n" 2 r.Analysis.constraints;
  Alcotest.(check (float 1e-9)) "width" 2.0 r.Analysis.width;
  Alcotest.(check bool) "bracket contains OPT" true
    (r.Analysis.opt_lower <= opt +. 1e-9 && r.Analysis.opt_upper >= opt -. 1e-9);
  Alcotest.(check bool) "caps positive" true
    (r.Analysis.paper_iteration_cap > 0 && r.Analysis.taylor_degree_cap > 0);
  (* Pretty-printer runs without raising. *)
  ignore (Format.asprintf "%a" Analysis.pp r)

let test_analysis_bracket_always_valid () =
  let rng = Rng.create 227 in
  for _ = 1 to 5 do
    let inst = Random_psd.factored ~rng ~dim:6 ~n:4 ~rank:2 () in
    let r = Analysis.analyze inst in
    let solved = Solver.solve_packing ~eps:0.2 inst in
    if solved.Solver.value > r.Analysis.opt_upper *. (1.0 +. 1e-6) then
      Alcotest.failf "a-priori upper %g below verified value %g"
        r.Analysis.opt_upper solved.Solver.value;
    if solved.Solver.upper_bound < r.Analysis.opt_lower *. (1.0 -. 1e-6) then
      Alcotest.failf "a-priori lower %g above verified upper %g"
        r.Analysis.opt_lower solved.Solver.upper_bound
  done

(* ------------------------------------------------------------------ *)
(* Evaluator *)

let test_evaluator_exact_vs_identity_sketch () =
  (* With the identity sketch the sketched evaluator's only deviation from
     the exact one is the polynomial truncation, bounded by eps/2. *)
  let rng = Rng.create 223 in
  let inst = Random_psd.factored ~rng ~dim:9 ~n:4 ~rank:3 () in
  let params = Params.of_eps ~eps:0.05 ~n:4 in
  let exact = Evaluator.create ~backend:Decision.Exact ~params inst in
  let sketched =
    Evaluator.create
      ~backend:(Decision.Sketched { seed = 3; sketch_dim = Some 1000 })
      ~params inst
  in
  let x = Array.map (fun v -> 3.0 *. v) (Decision.initial_point inst) in
  let e = exact x and s = sketched x in
  Array.iteri
    (fun i d ->
      let rel = Float.abs (s.Evaluator.dots.(i) -. d) /. d in
      if rel > 0.05 then Alcotest.failf "evaluator dot %d rel err %g" i rel)
    e.Evaluator.dots;
  let tr_rel =
    Float.abs (s.Evaluator.trace_w -. e.Evaluator.trace_w) /. e.Evaluator.trace_w
  in
  if tr_rel > 0.05 then Alcotest.failf "trace rel err %g" tr_rel;
  (match e.Evaluator.w with
  | Some w ->
      Alcotest.(check (float 1e-9)) "trace consistent" (Mat.trace w)
        e.Evaluator.trace_w
  | None -> Alcotest.fail "exact evaluator must materialize W");
  Alcotest.(check bool) "sketched has no W" true (s.Evaluator.w = None)

let test_evaluator_spiked_spectrum_clamped_degree () =
  (* Regression: a spiked λmax estimate (huge weights) must not inflate
     the degree-selection interval past the tracked Lemma-3.2 bound.
     The clamped estimate equals the analytic cap exactly, so the
     selected degree matches the cap's own degree. *)
  let rng = Rng.create 229 in
  let inst = Random_psd.factored ~rng ~dim:8 ~n:3 ~rank:2 () in
  let params = Params.of_eps ~eps:0.3 ~n:3 in
  let sketched =
    Evaluator.create
      ~backend:(Decision.Sketched { seed = 5; sketch_dim = Some 4 })
      ~params inst
  in
  let analytic_cap =
    (1.0 +. (10.0 *. params.Params.eps)) *. params.Params.k_cap
  in
  let half_kappa = 0.5 *. Float.max 1.0 analytic_cap in
  let poly_eps = params.Params.eps /. 4.0 in
  let cap_degree =
    match Psdp_expm.Poly.chebyshev_certified ~kappa:half_kappa ~eps:poly_eps with
    | Some (d, _) -> d
    | None -> Psdp_expm.Poly.degree ~kappa:half_kappa ~eps:poly_eps
  in
  let spiked = Array.make 3 1e12 in
  let e = sketched spiked in
  Alcotest.(check int) "degree clamped to the analytic cap" cap_degree
    e.Evaluator.degree

(* ------------------------------------------------------------------ *)
(* Decision (Algorithm 3.1) *)

let test_initial_point_claim_3_3 () =
  (* Claim 3.3: Σᵢ x⁰ᵢ Aᵢ ≼ I. *)
  let rng = Rng.create 19 in
  let inst = Random_psd.factored ~rng ~dim:8 ~n:5 ~rank:3 () in
  let x0 = Decision.initial_point inst in
  let lmax = Certificate.psi_lambda_max inst x0 in
  Alcotest.(check bool) "Psi(0) <= I" true (lmax <= 1.0 +. 1e-9)

let check_decision_outcome inst eps (res : Decision.result) =
  match res.Decision.outcome with
  | Decision.Dual { x; _ } ->
      let cert = Certificate.check_dual ~tol:1e-6 inst x in
      Alcotest.(check bool) "dual feasible" true cert.Certificate.feasible;
      Alcotest.(check bool)
        (Printf.sprintf "dual value %g >= 1 - eps" cert.Certificate.value)
        true
        (cert.Certificate.value >= 1.0 -. eps -. 1e-9)
  | Decision.Primal { dots; _ } ->
      Alcotest.(check bool) "primal min dot" true
        (Util.min_array dots >= 1.0 -. eps -. 1e-9)

let test_decision_feasible_side () =
  (* Scale an instance so OPT >> 1: the dual side must fire. *)
  let rng = Rng.create 23 in
  let inst, opt = Known_opt.orthogonal_projectors ~rng ~dim:8 ~n:4 in
  let eps = 0.2 in
  (* Scaling the matrices by v divides the optimum by v: v = opt/2 gives
     OPT_scaled = 2, comfortably feasible. *)
  let scaled = Instance.scale (opt /. 2.0) inst in
  let res = Decision.solve ~eps scaled in
  (match res.Decision.outcome with
  | Decision.Dual _ -> ()
  | Decision.Primal _ -> Alcotest.fail "expected a dual outcome");
  check_decision_outcome scaled eps res

let test_decision_infeasible_side () =
  (* Scale so OPT << 1: the primal side must fire. *)
  let rng = Rng.create 29 in
  let inst, opt = Known_opt.orthogonal_projectors ~rng ~dim:8 ~n:4 in
  let eps = 0.2 in
  (* v = opt/0.25 drives the optimum down to 1/4 < 1 − ε. *)
  let scaled = Instance.scale (opt /. 0.25) inst in
  let res = Decision.solve ~eps scaled in
  (match res.Decision.outcome with
  | Decision.Primal _ -> ()
  | Decision.Dual _ -> Alcotest.fail "expected a primal outcome");
  check_decision_outcome scaled eps res

let test_decision_faithful_mode () =
  (* Faithful mode on a clearly-feasible instance exits through the
     ‖x‖₁ > K condition with the paper's scaled dual. *)
  let rng = Rng.create 31 in
  let inst, opt = Known_opt.rank_one_orthonormal ~rng ~dim:6 ~n:3 in
  let eps = 0.3 in
  let scaled = Instance.scale (opt /. 2.0) inst in
  let res = Decision.solve ~mode:Decision.Faithful ~eps scaled in
  check_decision_outcome scaled (10.0 *. eps) res;
  Alcotest.(check bool) "within R" true
    (res.Decision.iterations <= res.Decision.params.Params.r_cap)

let test_decision_spectrum_bound_lemma_3_2 () =
  (* Lemma 3.2: λmax(Ψ⁽ᵗ⁾) <= (1+10ε)K along the whole trajectory. *)
  let rng = Rng.create 37 in
  let inst = Random_psd.factored ~rng ~dim:6 ~n:4 ~rank:2 () in
  let eps = 0.3 in
  let scaled = Instance.scale 0.9 inst in
  let params = Params.of_eps ~eps ~n:4 in
  let cap = (1.0 +. (10.0 *. eps)) *. params.Params.k_cap in
  let weights_history = ref [] in
  let res =
    Decision.solve ~mode:Decision.Faithful ~eps
      ~on_iter:(fun s -> weights_history := s.Decision.l1 :: !weights_history)
      scaled
  in
  ignore res;
  (* The ℓ₁ cap implies the spectral cap through the trajectory; check the
     recorded ℓ₁ values against Claim 3.5 (‖x‖₁ <= (1+ε)K). *)
  List.iter
    (fun l1 ->
      if l1 > (1.0 +. eps) *. params.Params.k_cap +. 1e-9 then
        Alcotest.failf "Claim 3.5 violated: %g" l1)
    !weights_history;
  ignore cap

let test_decision_sketched_agrees () =
  let rng = Rng.create 41 in
  let inst = Beamforming.instance ~rng ~antennas:8 ~users:5 () in
  let scaled = Instance.scale 0.4 inst in
  let eps = 0.2 in
  let r_exact = Decision.solve ~eps ~backend:Decision.Exact scaled in
  let r_sketch =
    Decision.solve ~eps
      ~backend:(Decision.Sketched { seed = 1; sketch_dim = None })
      scaled
  in
  check_decision_outcome scaled eps r_exact;
  check_decision_outcome scaled eps r_sketch

let test_decision_primal_trace_one () =
  let rng = Rng.create 43 in
  let inst, opt = Known_opt.orthogonal_projectors ~rng ~dim:6 ~n:3 in
  let scaled = Instance.scale (opt /. 0.2) inst in
  let res = Decision.solve ~eps:0.2 scaled in
  match res.Decision.outcome with
  | Decision.Primal { y = Some y; _ } ->
      Alcotest.(check (float 1e-6)) "Tr Y = 1" 1.0 (Mat.trace y);
      let cert = Certificate.check_primal ~tol:0.21 scaled y in
      Alcotest.(check bool) "materialized Y feasible" true
        cert.Certificate.feasible
  | Decision.Primal { y = None; _ } -> Alcotest.fail "exact backend must give Y"
  | Decision.Dual _ -> Alcotest.fail "expected primal"

(* Far below OPT an exact check could certify at its first look by
   scaling the iterate up. The decision's exit does not: it answers once
   x itself carries mass 1 − ε, and the bisection does the scaling.
   Orthogonal projectors at a fifth of OPT: the initial point carries
   OPT/m = 5/32 of mass, so the iterate must grow before it answers. *)
let test_decision_exit_does_not_scale_up () =
  let rng = Rng.create 29 in
  let inst, opt = Known_opt.orthogonal_projectors ~rng ~dim:32 ~n:4 in
  let eps = 0.3 in
  let r = Decision.solve ~eps (Instance.scale (opt /. 5.0) inst) in
  match r.Decision.outcome with
  | Decision.Primal _ -> Alcotest.fail "primal answer below OPT"
  | Decision.Dual { x; raw } ->
      let mass = Util.sum_array x in
      if mass < 1.0 -. eps || mass > Util.sum_array raw *. (1.0 +. 1e-12) then
        Alcotest.failf "dual mass %g, iterate mass %g" mass (Util.sum_array raw);
      if r.Decision.iterations <= 10 then
        Alcotest.failf "answered after %d iterations" r.Decision.iterations

let test_decision_width_independence_smoke () =
  (* Iteration counts must stay flat as the width grows (EXP3 in full). *)
  let iters width =
    let rng = Rng.create 47 in
    let inst = Random_psd.with_width ~rng ~dim:8 ~n:5 ~width in
    (* Solve near OPT/2 so neither exit is instant. *)
    let r = Solver.solve_packing ~eps:0.3 inst in
    (* v = 2·OPT puts the threshold at OPT/2 so neither exit is instant. *)
    let scaled = Instance.scale (2.0 *. r.Solver.value) inst in
    (Decision.solve ~eps:0.3 scaled).Decision.iterations
  in
  let i1 = iters 1.0 and i100 = iters 100.0 in
  if float_of_int i100 > 4.0 *. float_of_int i1 +. 100.0 then
    Alcotest.failf "width dependence detected: %d -> %d iterations" i1 i100

(* ------------------------------------------------------------------ *)
(* Solver (approxPSDP) *)

let check_packing_result inst eps opt (r : Solver.packing_result) =
  let cert = Certificate.check_dual ~tol:1e-5 inst r.Solver.x in
  Alcotest.(check bool) "returned x feasible" true cert.Certificate.feasible;
  Alcotest.(check (float 1e-9)) "value consistent" r.Solver.value
    cert.Certificate.value;
  (match opt with
  | Some opt ->
      Alcotest.(check bool)
        (Printf.sprintf "value %g >= (1-eps)·OPT %g" r.Solver.value opt)
        true
        (r.Solver.value >= ((1.0 -. eps) *. opt) -. 1e-6);
      Alcotest.(check bool)
        (Printf.sprintf "upper %g >= OPT %g" r.Solver.upper_bound opt)
        true
        (r.Solver.upper_bound >= opt -. (0.05 *. opt) -. 1e-6)
  | None -> ());
  Alcotest.(check bool) "bracket ordered" true
    (r.Solver.upper_bound >= r.Solver.value -. 1e-9)

let test_solver_known_opt_projectors () =
  let rng = Rng.create 53 in
  let inst, opt = Known_opt.orthogonal_projectors ~rng ~dim:10 ~n:5 in
  let eps = 0.15 in
  let r = Solver.solve_packing ~eps inst in
  check_packing_result inst eps (Some opt) r

let test_solver_known_opt_rank_one () =
  let rng = Rng.create 59 in
  let inst, opt = Known_opt.rank_one_orthonormal ~rng ~dim:8 ~n:4 in
  let r = Solver.solve_packing ~eps:0.15 inst in
  check_packing_result inst 0.15 (Some opt) r

let test_solver_known_opt_weighted () =
  let rng = Rng.create 61 in
  let inst, opt =
    Known_opt.weighted_projectors ~rng ~dim:9 ~weights:[| 0.5; 1.0; 4.0 |]
  in
  let r = Solver.solve_packing ~eps:0.15 inst in
  check_packing_result inst 0.15 (Some opt) r

let test_solver_simplex_corner () =
  let inst, opt = Known_opt.simplex_corner ~dim:6 in
  let r = Solver.solve_packing ~eps:0.15 inst in
  check_packing_result inst 0.15 (Some opt) r

let test_solver_single_constraint () =
  (* n = 1: bracket collapses, zero decision calls. *)
  let inst, opt = Diagonal.scaled_identities [| 0.8 |] ~dim:3 in
  let r = Solver.solve_packing ~eps:0.1 inst in
  Alcotest.(check (float 1e-9)) "exact" opt r.Solver.value;
  Alcotest.(check int) "no calls" 0 r.Solver.decision_calls

let test_solver_cycle_edge_packing () =
  let n = 8 in
  let inst = Graph_packing.edge_packing (Graph.cycle n) in
  let opt = Graph_packing.edge_packing_opt_cycle n in
  let r = Solver.solve_packing ~eps:0.15 inst in
  check_packing_result inst 0.15 (Some opt) r

let test_solver_beamforming_bracket () =
  let rng = Rng.create 67 in
  let inst = Beamforming.instance ~rng ~antennas:10 ~users:6 () in
  let eps = 0.2 in
  let r = Solver.solve_packing ~eps inst in
  check_packing_result inst eps None r;
  Alcotest.(check bool) "gap closed" true
    (r.Solver.upper_bound <= (1.0 +. eps) *. r.Solver.value +. 1e-9)

let test_solver_sketched_backend () =
  let rng = Rng.create 71 in
  let inst, opt = Known_opt.orthogonal_projectors ~rng ~dim:8 ~n:4 in
  let r =
    Solver.solve_packing ~eps:0.2
      ~backend:(Decision.Sketched { seed = 5; sketch_dim = None })
      inst
  in
  check_packing_result inst 0.2 (Some opt) r

(* A solve that used to stall: beamforming with m = 10 and 4 users under
   a pinned 5-row JL sketch at ε = 0.5 (cell s012 of perfbench's
   solve-small). A dual that only ever scaled down never reached
   λmax = 1, so no decision call raised the lower end and the bisection
   re-probed one threshold until its call budget ran out. *)
let test_solver_sketched_stall_closes () =
  let rng = Rng.create ((20120625 * 1_000_003) + 7_919 + 12) in
  let inst = Beamforming.instance ~rng ~antennas:10 ~users:4 () in
  let eps = 0.5 in
  let r =
    Solver.solve_packing ~eps
      ~backend:(Decision.Sketched { seed = 17; sketch_dim = Some 5 })
      inst
  in
  if r.Solver.upper_bound > (1.0 +. eps) *. r.Solver.value then
    Alcotest.failf "bracket [%g, %g] open after %d calls" r.Solver.value
      r.Solver.upper_bound r.Solver.decision_calls

let test_solver_covering_witness () =
  (* Beamforming channels overlap, so the a-priori upper bracket is loose
     and the bisection must take primal (upper-bound) steps — giving us a
     covering witness to verify. (Projector families have a tight sum
     bound and never need one.) *)
  let rng = Rng.create 73 in
  let inst = Beamforming.instance ~rng ~antennas:8 ~users:6 () in
  let r = Solver.solve_packing ~eps:0.15 inst in
  match r.Solver.primal_z with
  | Some z ->
      (* Z is a covering witness: Aᵢ•Z >= 1 for kept constraints and
         Tr Z ≈ the certified upper bound. *)
      let cert = Certificate.check_primal ~tol:1e-6 inst z in
      Alcotest.(check bool) "covering feasible" true
        (cert.Certificate.min_dot >= 1.0 -. 1e-6);
      Alcotest.(check bool) "trace bounded by certified upper bound" true
        (Mat.trace z <= r.Solver.upper_bound *. (1.0 +. 1e-9) +. 1e-9)
  | None -> Alcotest.fail "expected a primal step to have produced Z"

let test_solve_covering () =
  (* Projectors: covering OPT = packing OPT = n, and the identity
     fallback witness is exactly optimal (Tr(I/min_tr) = dim/rank = n). *)
  let rng = Rng.create 107 in
  let inst, opt = Known_opt.orthogonal_projectors ~rng ~dim:12 ~n:4 in
  let r = Solver.solve_covering ~eps:0.15 inst in
  let cert = Certificate.check_primal inst r.Solver.z in
  Alcotest.(check bool) "witness feasible" true
    (cert.Certificate.min_dot >= 1.0 -. 1e-6);
  Alcotest.(check (float 1e-6)) "objective = Tr Z" (Mat.trace r.Solver.z)
    r.Solver.objective;
  Alcotest.(check bool) "objective >= OPT" true
    (r.Solver.objective >= opt -. 1e-6);
  Alcotest.(check bool) "weak duality" true
    (r.Solver.lower_bound <= r.Solver.objective +. 1e-9);
  (* On beamforming the primal bisection witness should beat (or match)
     the identity fallback. *)
  let bf = Beamforming.instance ~rng ~antennas:8 ~users:6 () in
  let rb = Solver.solve_covering ~eps:0.15 bf in
  let certb = Certificate.check_primal bf rb.Solver.z in
  Alcotest.(check bool) "bf witness feasible" true
    (certb.Certificate.min_dot >= 1.0 -. 1e-6);
  Alcotest.(check bool) "bf bracket sane" true
    (rb.Solver.lower_bound <= rb.Solver.objective +. 1e-9);
  Alcotest.check_raises "sketched rejected"
    (Invalid_argument
       "Solver.solve_covering: the covering witness requires the exact backend")
    (fun () ->
      ignore
        (Solver.solve_covering
           ~backend:(Decision.Sketched { seed = 1; sketch_dim = None })
           ~eps:0.15 bf))

let test_solve_general_end_to_end () =
  let rng = Rng.create 79 in
  let g = random_general rng 5 4 in
  let r = Solver.solve_general ~eps:0.2 g in
  (* Weak duality on the original program: dual value <= primal value. *)
  (match r.Solver.objective_value with
  | Some obj ->
      Alcotest.(check bool) "weak duality" true
        (r.Solver.dual_value <= obj +. 1e-6);
      (* Primal feasibility of the denormalized Y. *)
      (match r.Solver.y with
      | Some y ->
          Array.iteri
            (fun i (a, b) ->
              if Mat.dot a y < b -. (1e-5 *. b) then
                Alcotest.failf "original constraint %d violated" i)
            g.Instance.constraints
      | None -> Alcotest.fail "expected materialized Y")
  | None -> Alcotest.fail "expected objective value");
  (* Approximate optimality: gap within packing bracket. *)
  Alcotest.(check bool) "values bracket" true
    (r.Solver.dual_value <= r.Solver.packing.Solver.upper_bound +. 1e-6)

let test_solver_laplacian_covering_pipeline () =
  let g = Graph_packing.laplacian_covering (Graph.cycle 5) in
  let r = Solver.solve_general ~eps:0.25 g in
  match (r.Solver.y, r.Solver.objective_value) with
  | Some y, Some obj ->
      Array.iteri
        (fun i (a, b) ->
          if Mat.dot a y < b -. 1e-5 then Alcotest.failf "Y_%d%d < 1" i i)
        g.Instance.constraints;
      Alcotest.(check bool) "objective positive" true (obj > 0.0)
  | _ -> Alcotest.fail "missing primal"

(* ------------------------------------------------------------------ *)
(* Baseline *)

let test_baseline_feasible_side () =
  let rng = Rng.create 83 in
  let inst, opt = Known_opt.orthogonal_projectors ~rng ~dim:8 ~n:4 in
  let scaled = Instance.scale (opt /. 2.0) inst in
  let r = Baseline.decide ~eps:0.2 scaled in
  match r.Baseline.outcome with
  | Baseline.Feasible { x } ->
      let cert = Certificate.check_dual ~tol:1e-5 scaled x in
      Alcotest.(check bool) "feasible" true cert.Certificate.feasible;
      Alcotest.(check bool) "value" true (cert.Certificate.value >= 0.8 -. 1e-9)
  | Baseline.Infeasible _ -> Alcotest.fail "expected feasible"

let test_baseline_infeasible_side () =
  let rng = Rng.create 89 in
  let inst, opt = Known_opt.orthogonal_projectors ~rng ~dim:8 ~n:4 in
  (* OPT scaled down to 0.4 < 1: no unit-mass dual exists. *)
  let scaled = Instance.scale (opt /. 0.4) inst in
  let r = Baseline.decide ~eps:0.1 scaled in
  match r.Baseline.outcome with
  | Baseline.Infeasible { y } ->
      Alcotest.(check (float 1e-6)) "Tr y = 1" 1.0 (Mat.trace y);
      let cert = Certificate.check_primal ~tol:2.0 scaled y in
      Alcotest.(check bool) "all dots exceed 1" true
        (cert.Certificate.min_dot > 1.0)
  | Baseline.Feasible _ -> Alcotest.fail "expected infeasible"

let test_baseline_maximize () =
  let rng = Rng.create 109 in
  let inst, opt = Known_opt.orthogonal_projectors ~rng ~dim:8 ~n:4 in
  let r = Baseline.maximize ~eps:0.2 inst in
  let cert = Certificate.check_dual ~tol:1e-5 inst r.Baseline.x in
  Alcotest.(check bool) "feasible" true cert.Certificate.feasible;
  Alcotest.(check bool) "value near OPT" true
    (r.Baseline.value >= (0.8 *. opt) -. 1e-6);
  Alcotest.(check bool) "upper covers OPT" true
    (r.Baseline.upper_bound >= opt -. (0.05 *. opt))

let test_baseline_width_dependence () =
  (* The baseline's iteration budget grows with width: verify the budget
     relation (the actual EXP3 bench measures real iterations). *)
  let rng = Rng.create 97 in
  let narrow = Random_psd.with_width ~rng ~dim:6 ~n:4 ~width:1.0 in
  let wide = Random_psd.with_width ~rng ~dim:6 ~n:4 ~width:50.0 in
  Alcotest.(check bool) "width recorded" true
    (Instance.width wide > 10.0 *. Instance.width narrow)

(* ------------------------------------------------------------------ *)
(* Lp *)

let test_lp_decide_feasible () =
  (* 2 variables, M = [[1, 0.5]]: OPT = max x1+x2 st x1 + 0.5 x2 <= 1 = 2. *)
  let t = Lp.create ~rows:1 ~cols:[| [| 1.0 |]; [| 0.5 |] |] in
  let r = Lp.decide ~eps:0.2 t in
  match r.Lp.outcome with
  | Lp.Dual { x } ->
      Alcotest.(check bool) "feasible" true (Lp.feasible t x);
      Alcotest.(check bool) "value" true (Lp.value x >= 0.8 -. 1e-9)
  | Lp.Primal _ -> Alcotest.fail "expected dual"

let test_lp_maximize_known () =
  let t = Lp.create ~rows:1 ~cols:[| [| 1.0 |]; [| 0.5 |] |] in
  let r = Lp.maximize ~eps:0.1 t in
  Alcotest.(check bool) "near 2" true (r.Lp.value >= 1.8 && r.Lp.value <= 2.0 +. 1e-9);
  Alcotest.(check bool) "upper" true (r.Lp.upper_bound >= 2.0 -. 0.2)

let test_lp_matches_sdp_on_diagonal () =
  (* The headline consistency check: diagonal SDPs are LPs. *)
  let rng = Rng.create 101 in
  let inst = Diagonal.random ~rng ~dim:6 ~n:5 () in
  let eps = 0.15 in
  let sdp = Solver.solve_packing ~eps inst in
  let lp = Lp.maximize ~eps (Lp.of_diagonal_instance inst) in
  (* Both are (1±eps)-approximations of the same optimum. *)
  let lo = Float.max sdp.Solver.value lp.Lp.value in
  let hi = Float.min sdp.Solver.upper_bound lp.Lp.upper_bound in
  if lo > hi *. (1.0 +. 1e-6) then
    Alcotest.failf "SDP [%g, %g] and LP [%g, %g] brackets are disjoint"
      sdp.Solver.value sdp.Solver.upper_bound lp.Lp.value lp.Lp.upper_bound

let test_lp_rejects_non_diagonal () =
  let rng = Rng.create 103 in
  let inst = Random_psd.factored ~rng ~dim:4 ~n:2 ~rank:2 () in
  match Lp.of_diagonal_instance inst with
  | (_ : Lp.t) -> Alcotest.fail "accepted non-diagonal instance"
  | exception Invalid_argument _ -> ()

let test_lp_validation () =
  Alcotest.check_raises "negative entry"
    (Invalid_argument "Lp.create: negative entry in column 0") (fun () ->
      ignore (Lp.create ~rows:1 ~cols:[| [| -1.0 |] |]));
  Alcotest.check_raises "zero column"
    (Invalid_argument "Lp.create: column 0 is zero") (fun () ->
      ignore (Lp.create ~rows:2 ~cols:[| [| 0.0; 0.0 |] |]))

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_solver_bracket_valid =
  QCheck.Test.make ~name:"solver bracket contains a verified value" ~count:8
    (QCheck.int_bound 1_000_000) (fun seed ->
      let rng = Rng.create seed in
      let inst = Random_psd.factored ~rng ~dim:6 ~n:4 ~rank:2 () in
      let r = Solver.solve_packing ~eps:0.3 inst in
      let cert = Certificate.check_dual ~tol:1e-5 inst r.Solver.x in
      cert.Certificate.feasible
      && r.Solver.upper_bound >= r.Solver.value -. 1e-9)

let prop_decision_certificates =
  QCheck.Test.make ~name:"decision outcomes verify" ~count:8
    (QCheck.pair (QCheck.int_bound 1_000_000) (QCheck.float_range 0.3 2.0))
    (fun (seed, scale_) ->
      let rng = Rng.create seed in
      let inst = Random_psd.factored ~rng ~dim:5 ~n:3 ~rank:2 () in
      let scaled = Instance.scale scale_ inst in
      let eps = 0.3 in
      let res = Decision.solve ~eps scaled in
      match res.Decision.outcome with
      | Decision.Dual { x; _ } ->
          let cert = Certificate.check_dual ~tol:1e-5 scaled x in
          cert.Certificate.feasible && cert.Certificate.value >= 1.0 -. eps -. 1e-9
      | Decision.Primal { dots; _ } ->
          Util.min_array dots >= 1.0 -. eps -. 1e-9)

let prop_scaling_inverts_opt =
  (* OPT(v·A) = OPT(A)/v: the verified brackets must respect it. *)
  QCheck.Test.make ~name:"instance scaling inverts the optimum" ~count:5
    (QCheck.pair (QCheck.int_bound 1_000_000) (QCheck.float_range 0.5 3.0))
    (fun (seed, v) ->
      let rng = Rng.create seed in
      let inst = Random_psd.factored ~rng ~dim:6 ~n:3 ~rank:2 () in
      let r1 = Solver.solve_packing ~eps:0.25 inst in
      let r2 = Solver.solve_packing ~eps:0.25 (Instance.scale v inst) in
      (* Brackets of OPT and OPT/v: scaled-up r2 bracket must intersect
         r1's divided by v. *)
      let lo = Float.max r1.Solver.value (v *. r2.Solver.value) in
      let hi = Float.min r1.Solver.upper_bound (v *. r2.Solver.upper_bound) in
      lo <= hi *. (1.0 +. 1e-6))

let qcheck_cases =
  List.map
    Qa_harness.to_alcotest
    [ prop_solver_bracket_valid; prop_decision_certificates; prop_scaling_inverts_opt ]

let () =
  Alcotest.run "core"
    [
      ( "params",
        [
          Alcotest.test_case "formulas" `Quick test_params_formulas;
          Alcotest.test_case "eps scaling" `Quick test_params_scaling_in_eps;
          Alcotest.test_case "validation" `Quick test_params_validation;
        ] );
      ( "instance",
        [
          Alcotest.test_case "validation" `Quick test_instance_validation;
          Alcotest.test_case "width" `Quick test_instance_width;
          Alcotest.test_case "scale" `Quick test_instance_scale;
        ] );
      ( "certificate",
        [
          Alcotest.test_case "dual" `Quick test_certificate_dual;
          Alcotest.test_case "rescale" `Quick test_certificate_rescale;
          Alcotest.test_case "lanczos vs dense" `Quick
            test_certificate_lanczos_matches_dense;
          Alcotest.test_case "exact on the smaller side" `Quick
            test_certificate_exact_smaller_side;
          Alcotest.test_case "rescale up and down" `Quick
            test_certificate_rescale_up_and_down;
          Alcotest.test_case "shrink only scales down" `Quick
            test_certificate_shrink;
          Alcotest.test_case "primal" `Quick test_certificate_primal;
          Alcotest.test_case "rejects negative" `Quick
            test_certificate_rejects_negative;
        ] );
      ( "normalize",
        [
          Alcotest.test_case "primal direction" `Quick
            test_normalize_preserves_feasibility;
          Alcotest.test_case "dual direction" `Quick
            test_normalize_dual_direction;
          Alcotest.test_case "factored path matches" `Quick
            test_normalize_factored_matches_dense;
          Alcotest.test_case "rejects singular C" `Quick
            test_normalize_rejects_singular_objective;
          Alcotest.test_case "drops b=0" `Quick test_general_drops_zero_thresholds;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "report" `Quick test_analysis_report;
          Alcotest.test_case "bracket valid" `Quick
            test_analysis_bracket_always_valid;
        ] );
      ( "evaluator",
        [
          Alcotest.test_case "exact vs identity sketch" `Quick
            test_evaluator_exact_vs_identity_sketch;
          Alcotest.test_case "spiked spectrum clamps degree" `Quick
            test_evaluator_spiked_spectrum_clamped_degree;
        ] );
      ( "decision",
        [
          Alcotest.test_case "claim 3.3 initial point" `Quick
            test_initial_point_claim_3_3;
          Alcotest.test_case "feasible side" `Quick test_decision_feasible_side;
          Alcotest.test_case "infeasible side" `Quick
            test_decision_infeasible_side;
          Alcotest.test_case "faithful mode" `Quick test_decision_faithful_mode;
          Alcotest.test_case "claim 3.5 l1 cap" `Quick
            test_decision_spectrum_bound_lemma_3_2;
          Alcotest.test_case "sketched agrees" `Quick
            test_decision_sketched_agrees;
          Alcotest.test_case "primal trace 1" `Quick
            test_decision_primal_trace_one;
          Alcotest.test_case "exit does not scale up" `Quick
            test_decision_exit_does_not_scale_up;
          Alcotest.test_case "width independence smoke" `Slow
            test_decision_width_independence_smoke;
        ] );
      ( "solver",
        [
          Alcotest.test_case "projectors" `Quick test_solver_known_opt_projectors;
          Alcotest.test_case "rank one" `Quick test_solver_known_opt_rank_one;
          Alcotest.test_case "weighted projectors" `Quick
            test_solver_known_opt_weighted;
          Alcotest.test_case "simplex corner" `Quick test_solver_simplex_corner;
          Alcotest.test_case "single constraint" `Quick
            test_solver_single_constraint;
          Alcotest.test_case "cycle edge packing" `Quick
            test_solver_cycle_edge_packing;
          Alcotest.test_case "beamforming bracket" `Quick
            test_solver_beamforming_bracket;
          Alcotest.test_case "sketched backend" `Quick
            test_solver_sketched_backend;
          Alcotest.test_case "sketched stall closes" `Quick
            test_solver_sketched_stall_closes;
          Alcotest.test_case "covering witness" `Quick
            test_solver_covering_witness;
          Alcotest.test_case "solve_covering" `Quick test_solve_covering;
          Alcotest.test_case "general end-to-end" `Quick
            test_solve_general_end_to_end;
          Alcotest.test_case "laplacian covering" `Quick
            test_solver_laplacian_covering_pipeline;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "feasible side" `Quick test_baseline_feasible_side;
          Alcotest.test_case "infeasible side" `Quick
            test_baseline_infeasible_side;
          Alcotest.test_case "maximize" `Quick test_baseline_maximize;
          Alcotest.test_case "width recorded" `Quick
            test_baseline_width_dependence;
        ] );
      ( "lp",
        [
          Alcotest.test_case "decide feasible" `Quick test_lp_decide_feasible;
          Alcotest.test_case "maximize known" `Quick test_lp_maximize_known;
          Alcotest.test_case "matches SDP on diagonal" `Quick
            test_lp_matches_sdp_on_diagonal;
          Alcotest.test_case "rejects non-diagonal" `Quick
            test_lp_rejects_non_diagonal;
          Alcotest.test_case "validation" `Quick test_lp_validation;
        ] );
      ("properties", qcheck_cases);
    ]
