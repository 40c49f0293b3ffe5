(* Tests for the JL sketch, the Lemma-4.2 polynomial, and the Theorem-4.1
   bigDotExp primitive. *)

open Psdp_prelude
open Psdp_linalg
open Psdp_sparse
open Psdp_sketch
open Psdp_expm

let random_psd rng n scale_ =
  let g = Mat.init n (n + 2) (fun _ _ -> Rng.gaussian rng) in
  Mat.scale scale_ (Mat.mul g (Mat.transpose g))

let random_factored rng dim rank =
  let entries = ref [ (0, 0, 1.0) ] in
  for i = 0 to dim - 1 do
    for j = 0 to rank - 1 do
      if Rng.uniform rng < 0.5 then
        entries := (i, j, Rng.gaussian rng) :: !entries
    done
  done;
  Factored.of_csr (Csr.of_coo ~rows:dim ~cols:rank !entries)

(* ------------------------------------------------------------------ *)
(* Jl *)

let test_jl_dimensions () =
  let rng = Rng.create 2 in
  let s = Jl.create ~rng ~target_dim:5 ~source_dim:20 in
  Alcotest.(check int) "target" 5 (Jl.target_dim s);
  Alcotest.(check int) "source" 20 (Jl.source_dim s);
  Alcotest.(check int) "apply length" 5 (Array.length (Jl.apply s (Array.make 20 1.0)))

let test_jl_identity_exact () =
  let s = Jl.identity 7 in
  let rng = Rng.create 3 in
  let v = Rng.gaussian_array rng 7 in
  Alcotest.(check (float 1e-12)) "identity preserves norm" (Vec.dot v v)
    (Jl.norm_sq_estimate s v)

let test_jl_unbiased () =
  (* Average of many independent sketches converges to the true norm. *)
  let rng = Rng.create 5 in
  let v = Rng.gaussian_array rng 30 in
  let truth = Vec.dot v v in
  let total = ref 0.0 in
  let trials = 400 in
  for _ = 1 to trials do
    let s = Jl.create ~rng ~target_dim:8 ~source_dim:30 in
    total := !total +. Jl.norm_sq_estimate s v
  done;
  let mean = !total /. float_of_int trials in
  if Float.abs (mean -. truth) > 0.12 *. truth then
    Alcotest.failf "JL biased: mean %g vs %g" mean truth

let test_jl_concentration () =
  (* With k = recommended_dim eps, the relative error should be << 3 eps
     for most vectors. *)
  let rng = Rng.create 7 in
  let m = 50 and eps = 0.25 in
  let k = Jl.recommended_dim ~eps m in
  let failures = ref 0 in
  let trials = 100 in
  for _ = 1 to trials do
    let v = Rng.gaussian_array rng m in
    let s = Jl.create ~rng ~target_dim:k ~source_dim:m in
    let est = Jl.norm_sq_estimate s v in
    let truth = Vec.dot v v in
    if Float.abs (est -. truth) > 3.0 *. eps *. truth then incr failures
  done;
  if !failures > 5 then
    Alcotest.failf "JL concentration: %d/%d outside 3eps" !failures trials

let test_jl_rejects_bad_dims () =
  let rng = Rng.create 11 in
  Alcotest.check_raises "zero target"
    (Invalid_argument "Jl.create: dimensions must be positive") (fun () ->
      ignore (Jl.create ~rng ~target_dim:0 ~source_dim:5));
  Alcotest.check_raises "bad eps"
    (Invalid_argument "Jl.recommended_dim: eps must be positive") (fun () ->
      ignore (Jl.recommended_dim ~eps:0.0 5))

(* ------------------------------------------------------------------ *)
(* Poly (Lemma 4.2) *)

let test_poly_degree_formula () =
  (* k = max(e²·max(1,κ), ln(2/ε)) rounded up. *)
  let d = Poly.degree ~kappa:1.0 ~eps:0.5 in
  Alcotest.(check int) "kappa 1" (int_of_float (Float.ceil (exp 2.0))) d;
  let d2 = Poly.degree ~kappa:10.0 ~eps:0.5 in
  Alcotest.(check int) "kappa 10" (int_of_float (Float.ceil (10.0 *. exp 2.0))) d2;
  (* Tiny kappa: the ln(2/eps) branch and the e²·1 floor compete. *)
  let d3 = Poly.degree ~kappa:0.0 ~eps:0.5 in
  Alcotest.(check bool) "floor" true (d3 >= int_of_float (log (2.0 /. 0.5)))

let test_poly_degree_validation () =
  Alcotest.check_raises "negative kappa"
    (Invalid_argument "Poly.degree: kappa must be finite and non-negative")
    (fun () -> ignore (Poly.degree ~kappa:(-1.0) ~eps:0.1));
  Alcotest.check_raises "eps out of range"
    (Invalid_argument "Poly.degree: eps must lie in (0,1)") (fun () ->
      ignore (Poly.degree ~kappa:1.0 ~eps:1.5))

let test_poly_matches_exp_on_psd () =
  let rng = Rng.create 13 in
  List.iter
    (fun scale_ ->
      let a = random_psd rng 8 scale_ in
      let kappa = Eig.lambda_max a in
      let v = Rng.gaussian_array rng 8 in
      let eps = 0.01 in
      let approx = Poly.apply_exp ~matvec:(Mat.gemv a) ~kappa ~eps v in
      let exact = Mat.gemv (Matfun.expm a) v in
      (* Lemma 4.2: (1−ε)exp(B) ≼ p̂ ≼ exp(B); on vectors, compare norms
         of the difference against the norm of the exact result. *)
      let err = Vec.norm2 (Vec.sub approx exact) /. Vec.norm2 exact in
      if err > eps then
        Alcotest.failf "poly error %g > %g at scale %g" err eps scale_)
    [ 0.05; 0.2; 0.5 ]

let test_poly_sandwich () =
  (* The operator inequality (1−ε)exp(B) ≼ p̂(B) ≼ exp(B) checked on the
     spectrum of a commuting pair: evaluate on eigenvectors. *)
  let rng = Rng.create 17 in
  let a = random_psd rng 6 0.3 in
  let { Eig.values; vectors } = Eig.symmetric a in
  let eps = 0.05 in
  let kappa = values.(0) in
  let degree = Poly.degree ~kappa ~eps in
  for i = 0 to 5 do
    let v = Mat.col vectors i in
    let pv = Poly.apply ~matvec:(Mat.gemv a) ~degree v in
    (* p̂(A)v = p̂(λ)v for an eigenvector. *)
    let ratio = Vec.dot pv v /. exp values.(i) in
    if ratio > 1.0 +. 1e-9 then Alcotest.failf "upper violated: %g" ratio;
    if ratio < 1.0 -. eps -. 1e-9 then Alcotest.failf "lower violated: %g" ratio
  done

let test_chebyshev_matches_exp () =
  let rng = Rng.create 211 in
  List.iter
    (fun kappa ->
      let dim = 10 in
      let a = Mat.scale (kappa /. Float.max 1.0 (Eig.lambda_max (random_psd rng dim 1.0)))
                (random_psd rng dim 1.0) in
      (* normalize so λmax(a) <= kappa (we scale a fresh sample by the
         previous one's norm; just bound kappa by the actual λmax) *)
      let kappa_actual = Float.max 1.0 (Eig.lambda_max a) in
      let v = Rng.gaussian_array rng dim in
      let eps = 0.01 in
      let d = Poly.chebyshev_degree ~kappa:kappa_actual ~eps in
      let approx = Poly.chebyshev_apply ~matvec:(Mat.gemv a) ~kappa:kappa_actual ~degree:d v in
      let exact = Mat.gemv (Matfun.expm a) v in
      let err = Vec.norm2 (Vec.sub approx exact) /. Vec.norm2 exact in
      if err > eps then
        Alcotest.failf "chebyshev error %g > %g at kappa %g (degree %d)" err
          eps kappa_actual d)
    [ 1.0; 5.0; 20.0 ]

let test_chebyshev_shorter_than_taylor () =
  List.iter
    (fun kappa ->
      let eps = 0.01 in
      let dt = Poly.degree ~kappa ~eps in
      let dc = Poly.chebyshev_degree ~kappa ~eps in
      if dc >= dt then
        Alcotest.failf "chebyshev degree %d not shorter than taylor %d at kappa %g"
          dc dt kappa)
    [ 4.0; 16.0; 64.0 ]

let test_chebyshev_coefficients_sum () =
  (* p(kappa) = Σ c_k T_k(1) = Σ c_k must approximate e^kappa. *)
  let kappa = 12.0 in
  let d = Poly.chebyshev_degree ~kappa ~eps:1e-6 in
  let c = Poly.chebyshev_coefficients ~kappa ~degree:d in
  let total = Util.sum_array c in
  if not (Util.close ~rtol:1e-6 (exp kappa) total) then
    Alcotest.failf "sum of coefficients %g <> e^kappa %g" total (exp kappa)

let test_chebyshev_validation () =
  Alcotest.check_raises "bad kappa"
    (Invalid_argument "Poly.chebyshev_coefficients: kappa must be positive")
    (fun () -> ignore (Poly.chebyshev_coefficients ~kappa:0.0 ~degree:3));
  Alcotest.check_raises "bad eps"
    (Invalid_argument "Poly.chebyshev_degree: eps must lie in (0,1)")
    (fun () -> ignore (Poly.chebyshev_degree ~kappa:1.0 ~eps:0.0))

(* ------------------------------------------------------------------ *)
(* Certified Chebyshev remainder *)

(* One-sidedness on the scalar spectrum: for certified (d, r) the
   shifted polynomial satisfies e^λ <= p̂(λ)+r <= e^λ+2r on a dense grid
   of the certified interval. The 1-dimensional "matrix" λ makes
   chebyshev_apply_shifted evaluate the scalar polynomial exactly as
   the matrix path would on an eigenvector. *)
let check_certified_scalar ~kappa ~eps =
  match Poly.chebyshev_certified ~kappa ~eps with
  | None -> Alcotest.failf "certification failed at kappa=%g eps=%g" kappa eps
  | Some (degree, r) ->
      let target = (sqrt (1.0 +. eps) -. 1.0) /. 2.0 in
      if r > target then
        Alcotest.failf "shift %g exceeds target %g (kappa=%g eps=%g)" r target
          kappa eps;
      let tol = 1e-13 *. exp kappa in
      for j = 0 to 200 do
        let lambda = kappa *. float_of_int j /. 200.0 in
        let p =
          (Poly.chebyshev_apply_shifted
             ~matvec:(fun v -> [| lambda *. v.(0) |])
             ~kappa ~degree ~remainder:r [| 1.0 |]).(0)
        in
        let e = exp lambda in
        if p < e -. tol then
          Alcotest.failf
            "one-sidedness violated at lambda=%g: p=%.17g < e^l=%.17g \
             (kappa=%g eps=%g d=%d r=%g)"
            lambda p e kappa eps degree r;
        if p > e +. (2.0 *. r) +. tol then
          Alcotest.failf
            "bound violated at lambda=%g: p=%.17g > e^l+2r=%.17g (kappa=%g \
             eps=%g d=%d)"
            lambda p
            (e +. (2.0 *. r))
            kappa eps degree
      done

let test_cheb_certified_one_sided () =
  List.iter
    (fun kappa ->
      List.iter (fun eps -> check_certified_scalar ~kappa ~eps) [ 0.01; 0.1; 0.3 ])
    [ 0.7; 3.0; 9.0; 14.0; 22.0 ]

(* "Worst observed κ" pin: the certification frontier at the solver's
   operating accuracy must not regress. The solver's clamped half-κ at
   eps = 0.3 is ≈ 14; certification must comfortably cover that and
   keep working well past it, and must honestly refuse beyond the
   hard cap. *)
let test_cheb_certified_frontier () =
  let eps = 0.15 in
  (match Poly.chebyshev_certified ~kappa:25.0 ~eps with
  | Some (d, r) ->
      if d > 60 then Alcotest.failf "degree blew up at the frontier: %d" d;
      if r <= 0.0 then Alcotest.failf "non-positive shift %g" r
  | None -> Alcotest.fail "kappa=25 must certify at eps=0.15");
  (match Poly.chebyshev_certified ~kappa:601.0 ~eps with
  | None -> ()
  | Some _ -> Alcotest.fail "kappa beyond the hard cap must not certify");
  (* the remainder bound is monotone in the degree *)
  let r5 = Poly.chebyshev_remainder ~kappa:10.0 ~degree:5 in
  let r15 = Poly.chebyshev_remainder ~kappa:10.0 ~degree:15 in
  if r15 >= r5 then
    Alcotest.failf "remainder not decreasing: r(15)=%g >= r(5)=%g" r15 r5

let test_clamp_kappa () =
  Alcotest.(check (float 0.0)) "below cap" 5.0 (Poly.clamp_kappa ~cap:28.0 5.0);
  Alcotest.(check (float 0.0)) "above cap" 28.0 (Poly.clamp_kappa ~cap:28.0 1e9);
  Alcotest.(check (float 0.0)) "nan falls to cap" 28.0
    (Poly.clamp_kappa ~cap:28.0 Float.nan);
  Alcotest.(check (float 0.0)) "inf falls to cap" 28.0
    (Poly.clamp_kappa ~cap:28.0 Float.infinity);
  Alcotest.(check (float 0.0)) "negative falls to cap" 28.0
    (Poly.clamp_kappa ~cap:28.0 (-3.0));
  Alcotest.check_raises "bad cap"
    (Invalid_argument "Poly.clamp_kappa: cap must be finite and positive")
    (fun () -> ignore (Poly.clamp_kappa ~cap:0.0 1.0))

(* Panel applications must be byte-identical per column to the scalar
   chains, for all three polynomial paths, when matvec_many agrees
   column-wise with matvec (here: Mat.gemv_many vs Mat.gemv). *)
let test_poly_apply_many_byte_identical () =
  let rng = Rng.create 229 in
  let a = random_psd rng 9 0.3 in
  let kappa = Float.max 1.0 (Eig.lambda_max a) in
  let vs = Array.init 5 (fun _ -> Rng.gaussian_array rng 9) in
  let matvec = Mat.gemv a and matvec_many = Mat.gemv_many a in
  let check name singles panel =
    Array.iteri
      (fun r want ->
        if not (Vec.equal ~tol:0.0 want panel.(r)) then
          Alcotest.failf "%s column %d differs from scalar chain" name r)
      singles
  in
  check "apply_many"
    (Array.map (Poly.apply ~matvec ~degree:7) vs)
    (Poly.apply_many ~matvec_many ~degree:7 vs);
  check "chebyshev_apply_many"
    (Array.map (Poly.chebyshev_apply ~matvec ~kappa ~degree:9) vs)
    (Poly.chebyshev_apply_many ~matvec_many ~kappa ~degree:9 vs);
  let remainder = 0.01 in
  check "chebyshev_apply_shifted_many"
    (Array.map (Poly.chebyshev_apply_shifted ~matvec ~kappa ~degree:9 ~remainder) vs)
    (Poly.chebyshev_apply_shifted_many ~matvec_many ~kappa ~degree:9 ~remainder vs)

(* With the identity sketch and the certified Chebyshev default, the
   dots are sandwiched: at least the exact value, at most (1+eps) of
   it (the certified square (1+2r)² <= 1+eps/2 plus truncation). *)
let test_bigdotexp_sketched_vs_exact_chebyshev_default () =
  Alcotest.(check bool) "default is chebyshev" true
    (Big_dot_exp.default_poly () = Big_dot_exp.Chebyshev);
  let rng = Rng.create 233 in
  let phi = random_psd rng 8 0.4 in
  let factors = Array.init 3 (fun _ -> random_factored rng 8 2) in
  let eps = 0.1 in
  let r =
    Big_dot_exp.compute ~matvec:(Mat.gemv phi) ~dim:8
      ~kappa:(Eig.lambda_max phi) ~eps ~sketch:(Jl.identity 8) factors
  in
  Alcotest.(check bool) "poly_used" true
    (r.Big_dot_exp.poly_used = Big_dot_exp.Chebyshev);
  Alcotest.(check bool) "positive shift" true (r.Big_dot_exp.remainder > 0.0);
  Alcotest.(check bool) "matvecs accounted" true (r.Big_dot_exp.matvecs > 0);
  let exact = Big_dot_exp.compute_exact phi factors in
  Array.iteri
    (fun i d ->
      let got = r.Big_dot_exp.dots.(i) in
      if got < d *. (1.0 -. 1e-9) then
        Alcotest.failf "dot %d below exact: %.17g < %.17g" i got d;
      if got > d *. (1.0 +. eps) then
        Alcotest.failf "dot %d above certified band: %.17g > %.17g" i got
          (d *. (1.0 +. eps)))
    exact.Big_dot_exp.dots

(* Kernel counters: panel columns, matvecs and eval counts mirror into
   the psdp_kernel_* metrics. *)
let test_kernel_stats_counters () =
  Kernel_stats.reset ();
  let rng = Rng.create 239 in
  let phi = random_psd rng 6 0.3 in
  let factors = [| random_factored rng 6 2 |] in
  let run poly =
    ignore
      (Big_dot_exp.compute ~poly ~matvec:(Mat.gemv phi)
         ~matvec_many:(Mat.gemv_many phi) ~dim:6 ~kappa:(Eig.lambda_max phi)
         ~eps:0.1 ~sketch:(Jl.identity 6) factors)
  in
  run Big_dot_exp.Chebyshev;
  run Big_dot_exp.Taylor;
  Alcotest.(check int) "cheb evals" 1 (Kernel_stats.cheb_evals ());
  Alcotest.(check int) "taylor evals" 1 (Kernel_stats.taylor_evals ());
  Alcotest.(check int) "panel columns" 12 (Kernel_stats.panel_columns ());
  Alcotest.(check int) "gram passes" 2 (Kernel_stats.gram_passes ());
  Alcotest.(check bool) "matvecs counted" true (Kernel_stats.matvecs () > 0);
  Alcotest.(check int) "no fallback at small kappa" 0
    (Kernel_stats.taylor_fallbacks ());
  Kernel_stats.reset ();
  Alcotest.(check int) "reset" 0 (Kernel_stats.matvecs ())

let test_bigdotexp_chebyshev_backend () =
  let rng = Rng.create 223 in
  let phi = random_psd rng 10 0.3 in
  let factors = Array.init 4 (fun _ -> random_factored rng 10 2) in
  let eps = 0.02 in
  let exact = Big_dot_exp.compute_exact phi factors in
  let cheb =
    Big_dot_exp.compute ~poly:Big_dot_exp.Chebyshev ~matvec:(Mat.gemv phi)
      ~dim:10 ~kappa:(Eig.lambda_max phi) ~eps ~sketch:(Jl.identity 10) factors
  in
  Array.iteri
    (fun i d ->
      let rel = Float.abs (cheb.Big_dot_exp.dots.(i) -. d) /. d in
      if rel > eps then Alcotest.failf "chebyshev dot %d rel err %g" i rel)
    exact.Big_dot_exp.dots

let test_poly_degree_one () =
  (* degree 1 means p̂ = I. *)
  let v = [| 1.0; 2.0 |] in
  let out = Poly.apply ~matvec:(fun _ -> [| 100.0; 100.0 |]) ~degree:1 v in
  Alcotest.(check bool) "identity" true (Vec.equal out v)

(* ------------------------------------------------------------------ *)
(* Big_dot_exp (Theorem 4.1) *)

let test_bigdotexp_exact_backend () =
  let rng = Rng.create 19 in
  let phi = random_psd rng 9 0.2 in
  let factors = Array.init 4 (fun _ -> random_factored rng 9 3) in
  let r = Big_dot_exp.compute_exact phi factors in
  let e = Matfun.expm phi in
  Array.iteri
    (fun i f ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "dot %d" i)
        (Mat.dot (Factored.to_dense f) e)
        r.Big_dot_exp.dots.(i))
    factors;
  Alcotest.(check (float 1e-6)) "trace" (Mat.trace e) r.trace_estimate

let test_bigdotexp_identity_sketch_matches_exact () =
  (* With the identity sketch the only error left is the polynomial's,
     which is bounded by eps. *)
  let rng = Rng.create 23 in
  let phi = random_psd rng 10 0.15 in
  let factors = Array.init 5 (fun _ -> random_factored rng 10 2) in
  let eps = 0.02 in
  let approx =
    Big_dot_exp.compute ~matvec:(Mat.gemv phi) ~dim:10
      ~kappa:(Eig.lambda_max phi) ~eps ~sketch:(Jl.identity 10) factors
  in
  let exact = Big_dot_exp.compute_exact phi factors in
  Array.iteri
    (fun i d ->
      let rel = Float.abs (approx.Big_dot_exp.dots.(i) -. d) /. d in
      if rel > eps then Alcotest.failf "dot %d rel error %g > %g" i rel eps)
    exact.Big_dot_exp.dots;
  let rel_tr =
    Float.abs (approx.trace_estimate -. exact.trace_estimate)
    /. exact.trace_estimate
  in
  if rel_tr > eps then Alcotest.failf "trace rel error %g" rel_tr

let test_bigdotexp_gaussian_sketch_statistics () =
  (* With a Gaussian sketch the estimates concentrate around the exact
     values; check the median over repetitions. *)
  let rng = Rng.create 29 in
  let phi = random_psd rng 16 0.1 in
  let factors = Array.init 3 (fun _ -> random_factored rng 16 2) in
  let exact = Big_dot_exp.compute_exact phi factors in
  let trials = 31 in
  let rel_errors =
    Array.init trials (fun t ->
        let sketch =
          Jl.create ~rng:(Rng.create (1000 + t)) ~target_dim:12 ~source_dim:16
        in
        let approx =
          Big_dot_exp.compute ~matvec:(Mat.gemv phi) ~dim:16
            ~kappa:(Eig.lambda_max phi) ~eps:0.01 ~sketch factors
        in
        let worst = ref 0.0 in
        Array.iteri
          (fun i d ->
            worst :=
              Float.max !worst
                (Float.abs (approx.Big_dot_exp.dots.(i) -. d) /. d))
          exact.Big_dot_exp.dots;
        !worst)
  in
  let median = Stats.median rel_errors in
  (* k = 12 rows → relative std ≈ sqrt(2/12) ≈ 0.41 per constraint; the
     median of the worst-of-3 should still be well under 1. *)
  if median > 0.8 then Alcotest.failf "sketched dots median error %g" median

let test_bigdotexp_zero_phi () =
  (* exp(0) = I: dots reduce to traces. The Taylor prefix is exact at
     zero; the certified Chebyshev default is one-sided — at least the
     trace, and within the certified eps of it. *)
  let rng = Rng.create 31 in
  let factors = Array.init 3 (fun _ -> random_factored rng 6 2) in
  let phi = Mat.create 6 6 in
  let eps = 0.01 in
  let taylor =
    Big_dot_exp.compute ~poly:Big_dot_exp.Taylor ~matvec:(Mat.gemv phi) ~dim:6
      ~kappa:1.0 ~eps ~sketch:(Jl.identity 6) factors
  in
  Array.iteri
    (fun i f ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "trace %d" i)
        (Factored.trace f)
        taylor.Big_dot_exp.dots.(i))
    factors;
  let cheb =
    Big_dot_exp.compute ~poly:Big_dot_exp.Chebyshev ~matvec:(Mat.gemv phi)
      ~dim:6 ~kappa:1.0 ~eps ~sketch:(Jl.identity 6) factors
  in
  Alcotest.(check bool) "chebyshev ran" true (cheb.Big_dot_exp.poly_used = Big_dot_exp.Chebyshev);
  Array.iteri
    (fun i f ->
      let tr = Factored.trace f and d = cheb.Big_dot_exp.dots.(i) in
      if d < tr -. 1e-9 then
        Alcotest.failf "dot %d below trace: %.17g < %.17g" i d tr;
      if d > tr *. (1.0 +. eps) then
        Alcotest.failf "dot %d above certified band: %.17g > %.17g" i d
          (tr *. (1.0 +. eps)))
    factors

let test_bigdotexp_dimension_checks () =
  let rng = Rng.create 37 in
  let factors = [| random_factored rng 6 2 |] in
  Alcotest.check_raises "sketch mismatch"
    (Invalid_argument "Big_dot_exp.compute: sketch dimension mismatch")
    (fun () ->
      ignore
        (Big_dot_exp.compute
           ~matvec:(fun v -> v)
           ~dim:6 ~kappa:1.0 ~eps:0.1 ~sketch:(Jl.identity 5) factors))

exception Enough

(* EXP18 at its quick settings. At κ = 16 the certified Chebyshev
   expansion must cut the Taylor prefix's matvecs at least 3× (EXP18
   recorded 944 vs 160), and a 60-iteration faithful sketched decision
   at dim 32 under the default polynomial must never fall back to
   Taylor. The fallback count is read as a delta: other cases share the
   process-wide counters. *)
let test_exp18_matvec_cut_no_fallbacks () =
  let module Decision = Psdp_core.Decision in
  let module Instance = Psdp_core.Instance in
  let rng = Rng.create 1806 in
  let dim = 128 in
  let factors = Array.init 8 (fun _ -> random_factored rng dim 4) in
  let gram = Weighted_gram.create factors in
  Weighted_gram.set_weights gram (Array.make 8 (0.125 /. float_of_int dim));
  let sketch = Jl.create ~rng ~target_dim:16 ~source_dim:dim in
  let run poly =
    Big_dot_exp.compute ~poly ~matvec:(Weighted_gram.apply gram)
      ~matvec_many:(Weighted_gram.apply_many gram)
      ~dim ~kappa:16.0 ~eps:0.1 ~sketch factors
  in
  let taylor = run Big_dot_exp.Taylor and cheb = run Big_dot_exp.Chebyshev in
  Alcotest.(check bool) "chebyshev ran" true
    (cheb.Big_dot_exp.poly_used = Big_dot_exp.Chebyshev);
  let ratio =
    float_of_int taylor.Big_dot_exp.matvecs
    /. float_of_int cheb.Big_dot_exp.matvecs
  in
  if ratio < 3.0 then
    Alcotest.failf "matvec ratio %.2f < 3 (taylor %d, chebyshev %d)" ratio
      taylor.Big_dot_exp.matvecs cheb.Big_dot_exp.matvecs;
  let inst =
    Psdp_instances.Random_psd.factored ~rng ~dim:32 ~n:6 ~rank:4
      ~density:0.15 ()
  in
  let v =
    2.0
    *. Array.fold_left
         (fun acc f -> acc +. (1.0 /. Factored.lambda_max f))
         0.0 (Instance.factors inst)
  in
  let budget = 60 in
  let fallbacks0 = Kernel_stats.taylor_fallbacks ()
  and cheb0 = Kernel_stats.cheb_evals () in
  let reached =
    match
      Decision.solve ~mode:Decision.Faithful ~eps:0.3
        ~backend:(Decision.Sketched { seed = 5; sketch_dim = Some 24 })
        ~on_iter:(fun st -> if st.Decision.t >= budget then raise Enough)
        (Instance.scale v inst)
    with
    | (_ : Decision.result) -> false
    | exception Enough -> true
  in
  Alcotest.(check bool) "ran the iteration budget" true reached;
  Alcotest.(check bool) "chebyshev evaluations" true
    (Kernel_stats.cheb_evals () > cheb0);
  Alcotest.(check int) "no taylor fallbacks" 0
    (Kernel_stats.taylor_fallbacks () - fallbacks0)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_poly_monotone_degree =
  (* Higher degree only improves the approximation (all terms PSD). *)
  QCheck.Test.make ~name:"taylor prefix increases toward exp" ~count:40
    (QCheck.int_bound 1_000_000) (fun seed ->
      let rng = Rng.create seed in
      let a = random_psd rng 5 0.2 in
      let v = Vec.normalize (Rng.gaussian_array rng 5) in
      let value d = Vec.dot v (Poly.apply ~matvec:(Mat.gemv a) ~degree:d v) in
      value 3 <= value 6 +. 1e-9 && value 6 <= value 12 +. 1e-9)

let prop_bigdotexp_nonneg =
  QCheck.Test.make ~name:"exp(Φ)•A estimates are positive" ~count:40
    (QCheck.int_bound 1_000_000) (fun seed ->
      let rng = Rng.create seed in
      let phi = random_psd rng 7 0.2 in
      let factors = [| random_factored rng 7 2 |] in
      let r =
        Big_dot_exp.compute ~matvec:(Mat.gemv phi) ~dim:7
          ~kappa:(Eig.lambda_max phi) ~eps:0.1 ~sketch:(Jl.identity 7) factors
      in
      r.Big_dot_exp.dots.(0) >= 0.0 && r.trace_estimate > 0.0)

let prop_cheb_remainder_certified =
  (* Generated spectral intervals and accuracies: the certified (d, r)
     keeps the shifted polynomial one-sided within 2r of e^λ across the
     interval. Integer-encoded κ = k/10 and ε = e/100 shrink toward the
     smallest failing interval; failures replay via the pinned
     PSDP_QA_SEED line printed by the harness. *)
  QCheck.Test.make ~name:"chebyshev remainder certifies one-sidedness"
    ~count:50
    QCheck.(pair (int_range 1 180) (int_range 2 31))
    (fun (k10, e100) ->
      let kappa = float_of_int k10 /. 10.0 in
      let eps = float_of_int e100 /. 100.0 in
      match Poly.chebyshev_certified ~kappa ~eps with
      | None -> false
      | Some (degree, r) ->
          (* κ is floored at 1 inside certification; evaluate on the
             certified interval, not just the requested one. *)
          let kappa = Float.max 1.0 kappa in
          let tol = 1e-13 *. exp kappa in
          let ok = ref (r > 0.0 && r <= (sqrt (1.0 +. eps) -. 1.0) /. 2.0) in
          for j = 0 to 40 do
            let lambda = kappa *. float_of_int j /. 40.0 in
            let p =
              (Poly.chebyshev_apply_shifted
                 ~matvec:(fun v -> [| lambda *. v.(0) |])
                 ~kappa ~degree ~remainder:r [| 1.0 |]).(0)
            in
            let e = exp lambda in
            if p < e -. tol || p > e +. (2.0 *. r) +. tol then ok := false
          done;
          !ok)

let qcheck_cases =
  List.map
    Qa_harness.to_alcotest
    [
      prop_poly_monotone_degree;
      prop_bigdotexp_nonneg;
      prop_cheb_remainder_certified;
    ]

let () =
  Alcotest.run "expm"
    [
      ( "jl",
        [
          Alcotest.test_case "dimensions" `Quick test_jl_dimensions;
          Alcotest.test_case "identity exact" `Quick test_jl_identity_exact;
          Alcotest.test_case "unbiased" `Quick test_jl_unbiased;
          Alcotest.test_case "concentration" `Quick test_jl_concentration;
          Alcotest.test_case "rejects bad dims" `Quick test_jl_rejects_bad_dims;
        ] );
      ( "poly",
        [
          Alcotest.test_case "degree formula" `Quick test_poly_degree_formula;
          Alcotest.test_case "degree validation" `Quick
            test_poly_degree_validation;
          Alcotest.test_case "matches exp" `Quick test_poly_matches_exp_on_psd;
          Alcotest.test_case "sandwich bound" `Quick test_poly_sandwich;
          Alcotest.test_case "degree one" `Quick test_poly_degree_one;
          Alcotest.test_case "chebyshev matches exp" `Quick
            test_chebyshev_matches_exp;
          Alcotest.test_case "chebyshev shorter" `Quick
            test_chebyshev_shorter_than_taylor;
          Alcotest.test_case "chebyshev coefficient sum" `Quick
            test_chebyshev_coefficients_sum;
          Alcotest.test_case "chebyshev validation" `Quick
            test_chebyshev_validation;
          Alcotest.test_case "bigdotexp chebyshev" `Quick
            test_bigdotexp_chebyshev_backend;
          Alcotest.test_case "certified one-sided" `Quick
            test_cheb_certified_one_sided;
          Alcotest.test_case "certified frontier" `Quick
            test_cheb_certified_frontier;
          Alcotest.test_case "clamp kappa" `Quick test_clamp_kappa;
          Alcotest.test_case "apply_many byte-identical" `Quick
            test_poly_apply_many_byte_identical;
        ] );
      ( "big_dot_exp",
        [
          Alcotest.test_case "exact backend" `Quick test_bigdotexp_exact_backend;
          Alcotest.test_case "identity sketch" `Quick
            test_bigdotexp_identity_sketch_matches_exact;
          Alcotest.test_case "gaussian sketch stats" `Quick
            test_bigdotexp_gaussian_sketch_statistics;
          Alcotest.test_case "zero phi" `Quick test_bigdotexp_zero_phi;
          Alcotest.test_case "dimension checks" `Quick
            test_bigdotexp_dimension_checks;
          Alcotest.test_case "chebyshev default sandwich" `Quick
            test_bigdotexp_sketched_vs_exact_chebyshev_default;
          Alcotest.test_case "kernel stats" `Quick test_kernel_stats_counters;
          Alcotest.test_case "exp18 matvec cut, no fallbacks" `Quick
            test_exp18_matvec_cut_no_fallbacks;
        ] );
      ("properties", qcheck_cases);
    ]
