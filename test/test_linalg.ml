(* Tests for the dense linear-algebra substrate: vectors, matrices,
   Cholesky, QR, the symmetric eigensolver, matrix functions, Lanczos. *)

open Psdp_prelude
open Psdp_linalg

let check_float = Alcotest.(check (float 1e-9))
let check_close msg tol a b =
  if not (Util.close ~rtol:tol ~atol:tol a b) then
    Alcotest.failf "%s: %.12g vs %.12g" msg a b

let random_matrix rng rows cols =
  Mat.init rows cols (fun _ _ -> Rng.gaussian rng)

let random_symmetric rng n = Mat.symmetrize (random_matrix rng n n)

let random_psd rng n =
  let g = random_matrix rng n (n + 2) in
  Mat.mul g (Mat.transpose g)

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_dot () =
  let x = [| 1.0; 2.0; 3.0 |] and y = [| 4.0; -5.0; 6.0 |] in
  check_float "dot" 12.0 (Vec.dot x y);
  check_float "norm2" (sqrt 14.0) (Vec.norm2 x);
  check_float "norm1" 6.0 (Vec.norm1 x);
  check_float "norm_inf" 3.0 (Vec.norm_inf x)

let test_vec_axpy () =
  let y = [| 1.0; 1.0 |] in
  Vec.axpy y ~alpha:2.0 [| 3.0; -1.0 |];
  Alcotest.(check bool) "axpy" true (Vec.equal y [| 7.0; -1.0 |])

let test_vec_normalize () =
  let v = Vec.normalize [| 3.0; 4.0 |] in
  check_float "unit" 1.0 (Vec.norm2 v);
  Alcotest.check_raises "zero vector" (Invalid_argument "Vec.normalize: zero vector")
    (fun () -> ignore (Vec.normalize [| 0.0; 0.0 |]))

let test_vec_mismatch () =
  Alcotest.check_raises "dot mismatch"
    (Invalid_argument "Vec.dot: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.dot [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |]))

let test_vec_basis () =
  let e1 = Vec.basis 3 1 in
  Alcotest.(check bool) "basis" true (Vec.equal e1 [| 0.0; 1.0; 0.0 |])

(* ------------------------------------------------------------------ *)
(* Mat *)

let test_mat_mul_identity () =
  let rng = Rng.create 7 in
  let a = random_matrix rng 5 5 in
  let i5 = Mat.identity 5 in
  Alcotest.(check bool) "A*I = A" true (Mat.equal (Mat.mul a i5) a);
  Alcotest.(check bool) "I*A = A" true (Mat.equal (Mat.mul i5 a) a)

let test_mat_mul_known () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Mat.of_rows [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Mat.mul a b in
  Alcotest.(check bool) "2x2 product" true
    (Mat.equal c (Mat.of_rows [| [| 19.0; 22.0 |]; [| 43.0; 50.0 |] |]))

let test_mat_mul_parallel_matches () =
  let rng = Rng.create 11 in
  let a = random_matrix rng 37 23 and b = random_matrix rng 23 41 in
  let seq = Mat.mul a b in
  Psdp_parallel.Pool.with_pool ~num_domains:4 (fun pool ->
      let par = Mat.mul ~pool a b in
      Alcotest.(check bool) "parallel gemm = sequential" true
        (Mat.equal seq par))

let test_mat_gemv () =
  let a = Mat.of_rows [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let x = [| 1.0; 0.0; -1.0 |] in
  Alcotest.(check bool) "gemv" true (Vec.equal (Mat.gemv a x) [| -2.0; -2.0 |]);
  let y = [| 1.0; 1.0 |] in
  Alcotest.(check bool) "gemv_t" true
    (Vec.equal (Mat.gemv_t a y) [| 5.0; 7.0; 9.0 |])

let test_mat_trace_dot () =
  let rng = Rng.create 13 in
  let a = random_symmetric rng 6 and b = random_symmetric rng 6 in
  (* For symmetric matrices A•B = Tr(AB). *)
  check_close "dot = Tr(AB)" 1e-9 (Mat.dot a b) (Mat.trace (Mat.mul a b))

let test_mat_transpose_involution () =
  let rng = Rng.create 17 in
  let a = random_matrix rng 4 7 in
  Alcotest.(check bool) "transpose involution" true
    (Mat.equal a (Mat.transpose (Mat.transpose a)))

let test_mat_outer () =
  let v = [| 1.0; -2.0 |] in
  let m = Mat.outer v in
  Alcotest.(check bool) "outer" true
    (Mat.equal m (Mat.of_rows [| [| 1.0; -2.0 |]; [| -2.0; 4.0 |] |]))

(* Differential: the blocked symmetric matvec against the naive gemv,
   on shapes adversarial to the tiling (n = 1, exact tile multiples,
   off-by-one remainders) and with aliased input/output. Accumulation
   order differs between the two, so comparison is tolerance-based. *)
let test_mat_symv_matches_gemv () =
  let rng = Rng.create 4242 in
  List.iter
    (fun n ->
      let a = random_symmetric rng (max n 1) in
      let x = Array.init n (fun _ -> Rng.gaussian rng) in
      let want = Mat.gemv a x in
      let got = Mat.symv a x in
      Array.iteri
        (fun i w ->
          if not (Util.close ~rtol:1e-12 ~atol:1e-12 w got.(i)) then
            Alcotest.failf "symv n=%d row %d: %.17g vs gemv %.17g" n i got.(i)
              w)
        want;
      (* Aliased output: symv_into must snapshot the input first. *)
      let y = Array.copy x in
      Mat.symv_into a y ~into:y;
      Array.iteri
        (fun i w ->
          if not (Util.close ~rtol:1e-12 ~atol:1e-12 w y.(i)) then
            Alcotest.failf "aliased symv n=%d row %d: %.17g vs %.17g" n i y.(i)
              w)
        want)
    [ 1; 2; 63; 64; 65; 127; 130 ]

(* Differential: the panel gemv must be byte-identical per column to
   the one-vector gemv — same accumulation order by construction. *)
let test_mat_gemv_many_byte_identical () =
  let rng = Rng.create 4343 in
  List.iter
    (fun (rows, cols, p) ->
      let a = random_matrix rng rows cols in
      let xs = Array.init p (fun _ -> Array.init cols (fun _ -> Rng.gaussian rng)) in
      let ys = Mat.gemv_many a xs in
      Array.iteri
        (fun r x ->
          let want = Mat.gemv a x in
          Array.iteri
            (fun i w ->
              if w <> ys.(r).(i) then
                Alcotest.failf "gemv_many (%dx%d, p=%d) col %d row %d differs"
                  rows cols p r i)
            want)
        xs;
      Alcotest.(check int) "empty panel" 0 (Array.length (Mat.gemv_many a [||])))
    [ (1, 1, 1); (5, 3, 4); (16, 16, 12); (7, 2, 3) ]

let test_mat_shape_errors () =
  let a = Mat.create 2 3 and b = Mat.create 2 2 in
  Alcotest.check_raises "mul mismatch"
    (Invalid_argument "Mat.mul: inner dimension mismatch (2x3 * 2x2)")
    (fun () -> ignore (Mat.mul a b))

(* ------------------------------------------------------------------ *)
(* Cholesky *)

let test_cholesky_reconstruct () =
  let rng = Rng.create 23 in
  for n = 1 to 12 do
    let a = random_psd rng n in
    let l = Cholesky.factor a in
    let recon = Mat.mul l (Mat.transpose l) in
    if not (Mat.equal ~tol:1e-7 recon a) then
      Alcotest.failf "LL^T <> A at n=%d (err %g)" n
        (Mat.max_abs (Mat.sub recon a))
  done

let test_cholesky_solve () =
  let rng = Rng.create 29 in
  let a = random_psd rng 9 in
  let l = Cholesky.factor a in
  let x_true = Rng.gaussian_array rng 9 in
  let b = Mat.gemv a x_true in
  let x = Cholesky.solve ~l b in
  Alcotest.(check bool) "solve" true (Vec.equal ~tol:1e-6 x x_true)

let test_cholesky_rejects_indefinite () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  (* eigenvalues 3 and -1 *)
  match Cholesky.factor a with
  | (_ : Mat.t) -> Alcotest.fail "factored an indefinite matrix"
  | exception Cholesky.Not_positive_definite _ -> ()

let test_cholesky_congruence () =
  let rng = Rng.create 31 in
  let c = random_psd rng 7 in
  let a = random_psd rng 7 in
  let l = Cholesky.factor c in
  let b = Cholesky.congruence ~l a in
  (* L B Lᵀ should reconstruct A. *)
  let recon = Mat.mul l (Mat.mul b (Mat.transpose l)) in
  Alcotest.(check bool) "L B L^T = A" true (Mat.equal ~tol:1e-7 recon a)

let test_cholesky_congruence_matches_inv_sqrt () =
  (* The Cholesky congruence and the C^{-1/2} congruence of the paper give
     congruent matrices with identical spectra bounds for our usage; on a
     full-rank C they produce matrices with the same eigenvalues. *)
  let rng = Rng.create 37 in
  let c = random_psd rng 5 in
  let a = random_psd rng 5 in
  let l = Cholesky.factor c in
  let b_chol = Cholesky.congruence ~l a in
  let c_inv_sqrt = Matfun.inv_sqrtm_psd c in
  let b_sqrt = Mat.mul c_inv_sqrt (Mat.mul a c_inv_sqrt) in
  let ev1 = (Eig.symmetric b_chol).values in
  let ev2 = (Eig.symmetric b_sqrt).values in
  Array.iteri
    (fun i v -> check_close (Printf.sprintf "eig %d" i) 1e-6 v ev2.(i))
    ev1

let test_cholesky_pivoted_full_rank () =
  let rng = Rng.create 131 in
  let a = random_psd rng 9 in
  let f, rank = Cholesky.pivoted a in
  Alcotest.(check int) "full rank" 9 rank;
  Alcotest.(check bool) "FF^T = A" true
    (Mat.equal ~tol:1e-7 (Mat.mul f (Mat.transpose f)) a)

let test_cholesky_pivoted_low_rank () =
  (* Rank-3 PSD matrix in dimension 8: the factorization must stop at 3
     columns and still reconstruct. *)
  let rng = Rng.create 137 in
  let g = random_matrix rng 8 3 in
  let a = Mat.mul g (Mat.transpose g) in
  let f, rank = Cholesky.pivoted a in
  Alcotest.(check int) "detected rank" 3 rank;
  Alcotest.(check int) "factor columns" 3 (Mat.cols f);
  Alcotest.(check bool) "FF^T = A" true
    (Mat.equal ~tol:1e-7 (Mat.mul f (Mat.transpose f)) a)

let test_cholesky_pivoted_zero_and_indefinite () =
  let z = Mat.create 4 4 in
  let _, rank = Cholesky.pivoted z in
  Alcotest.(check int) "zero matrix has rank 0" 0 rank;
  let indef = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  match Cholesky.pivoted indef with
  | (_ : Mat.t * int) -> Alcotest.fail "factored an indefinite matrix"
  | exception Cholesky.Not_positive_definite _ -> ()

let test_factor_robust_pd_no_shift () =
  let rng = Rng.create 43 in
  let a = random_psd rng 6 in
  let l, shift = Cholesky.factor_robust a in
  Alcotest.(check (float 0.0)) "no shift needed" 0.0 shift;
  Alcotest.(check bool) "LL^T = A" true
    (Mat.equal ~tol:1e-7 (Mat.mul l (Mat.transpose l)) a)

let test_factor_robust_near_singular_shifts () =
  (* Full-rank but numerically borderline: diag(1, 1e-12). The plain
     factorization at working tolerance 1e-10 fails, the robust one
     absorbs it with a small positive diagonal shift (the rank probe
     at 1e-13 still sees full rank). *)
  let a = Mat.of_rows [| [| 1.0; 0.0 |]; [| 0.0; 1e-12 |] |] in
  (match Cholesky.factor a with
  | (_ : Mat.t) -> ()
  | exception Cholesky.Not_positive_definite _ -> ());
  let l, shift = Cholesky.factor_robust ~eps:1e-10 a in
  Alcotest.(check bool) "positive shift" true (shift > 0.0);
  let shifted = Mat.add a (Mat.scale shift (Mat.identity 2)) in
  Alcotest.(check bool) "LL^T = A + shift*I" true
    (Mat.equal ~tol:1e-7 (Mat.mul l (Mat.transpose l)) shifted)

let test_factor_robust_rejects_rank_deficient () =
  (* Genuinely rank-deficient inputs are not papered over: the caller
     must still see Not_positive_definite. *)
  let a = Mat.outer [| 1.0; 0.0; 0.0 |] in
  (match Cholesky.factor_robust a with
  | (_ : Mat.t * float) -> Alcotest.fail "factored a rank-1 matrix"
  | exception Cholesky.Not_positive_definite _ -> ());
  let indef = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  match Cholesky.factor_robust indef with
  | (_ : Mat.t * float) -> Alcotest.fail "factored an indefinite matrix"
  | exception Cholesky.Not_positive_definite _ -> ()

let test_factor_robust_badly_scaled () =
  (* A = D R D with row scales spanning 4 orders of magnitude (entries
     over [1e-4, 1e4], condition ~1e8): well inside double precision, so
     the factorization must succeed without a shift and reconstruct
     every entry to {e relative} accuracy — an absolute tolerance would
     pass vacuously on the small rows. *)
  let rng = Rng.create 47 in
  let n = 5 in
  let r = Mat.add (random_psd rng n) (Mat.scale 3.0 (Mat.identity n)) in
  let d = Array.init n (fun i -> 10.0 ** float_of_int (i - 2)) in
  let a = Mat.init n n (fun i j -> d.(i) *. d.(j) *. Mat.get r i j) in
  let l, shift = Cholesky.factor_robust a in
  Alcotest.(check (float 0.0)) "no shift needed" 0.0 shift;
  let recon = Mat.mul l (Mat.transpose l) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let rel =
        Float.abs (Mat.get recon i j -. Mat.get a i j) /. (d.(i) *. d.(j))
      in
      if rel > 1e-8 then
        Alcotest.failf "relative error %g at (%d,%d)" rel i j
    done
  done;
  (* Scales spanning 16 orders (condition ~1e32) exceed what double
     precision can represent as full rank: the relative pivot probe
     must classify this as numerically rank-deficient and refuse,
     rather than apply a shift that would wipe out the small rows. *)
  let d = Array.init n (fun i -> 10.0 ** float_of_int ((4 * i) - 8)) in
  let a = Mat.init n n (fun i j -> d.(i) *. d.(j) *. Mat.get r i j) in
  match Cholesky.factor_robust a with
  | (_ : Mat.t * float) ->
      Alcotest.fail "factored a numerically rank-deficient matrix"
  | exception Cholesky.Not_positive_definite _ -> ()

let test_factor_robust_tiny_scale () =
  (* Uniformly tiny PD input: the pivot tolerance is relative to the
     largest diagonal entry, so 1e-12 · A must factor as cleanly as A
     itself. *)
  let rng = Rng.create 53 in
  let a = Mat.scale 1e-12 (Mat.add (random_psd rng 4) (Mat.identity 4)) in
  let l, shift = Cholesky.factor_robust a in
  Alcotest.(check (float 0.0)) "no shift needed" 0.0 shift;
  let recon = Mat.mul l (Mat.transpose l) in
  Alcotest.(check bool) "relative reconstruction" true
    (Mat.max_abs (Mat.sub recon a) <= 1e-8 *. Mat.max_abs a)

let test_cholesky_is_psd () =
  let rng = Rng.create 41 in
  let a = random_psd rng 6 in
  Alcotest.(check bool) "psd accepted" true (Cholesky.is_psd a);
  let indef = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.(check bool) "indefinite rejected" false (Cholesky.is_psd indef);
  (* A rank-deficient PSD matrix must be accepted. *)
  let low_rank = Mat.outer [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check bool) "rank-1 accepted" true (Cholesky.is_psd low_rank)

(* ------------------------------------------------------------------ *)
(* QR *)

let test_qr_reconstruct () =
  let rng = Rng.create 43 in
  List.iter
    (fun (m, n) ->
      let a = random_matrix rng m n in
      let q, r = Qr.thin a in
      Alcotest.(check bool)
        (Printf.sprintf "QR = A (%dx%d)" m n)
        true
        (Mat.equal ~tol:1e-8 (Qr.reconstruct (q, r)) a);
      (* QᵀQ = I *)
      let qtq = Mat.mul (Mat.transpose q) q in
      Alcotest.(check bool) "Q orthonormal" true
        (Mat.equal ~tol:1e-8 qtq (Mat.identity n));
      (* R upper triangular *)
      for i = 0 to n - 1 do
        for j = 0 to i - 1 do
          if Float.abs (Mat.get r i j) > 1e-10 then
            Alcotest.fail "R not upper triangular"
        done
      done)
    [ (3, 3); (8, 5); (12, 12); (20, 3) ]

(* ------------------------------------------------------------------ *)
(* Eig *)

let test_eig_diagonal () =
  let d = Mat.diag [| 3.0; 1.0; 2.0 |] in
  let { Eig.values; _ } = Eig.symmetric d in
  Alcotest.(check bool) "sorted eigenvalues" true
    (Vec.equal values [| 3.0; 2.0; 1.0 |])

let test_eig_known_2x2 () =
  (* [[2,1],[1,2]] has eigenvalues 3 and 1. *)
  let a = Mat.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  let { Eig.values; vectors } = Eig.symmetric a in
  check_close "lambda1" 1e-10 3.0 values.(0);
  check_close "lambda2" 1e-10 1.0 values.(1);
  (* eigenvector for 3 is (1,1)/sqrt2 up to sign *)
  let v = Mat.col vectors 0 in
  check_close "component ratio" 1e-9 v.(0) v.(1)

let test_eig_reconstruct_random () =
  let rng = Rng.create 47 in
  List.iter
    (fun n ->
      let a = random_symmetric rng n in
      let d = Eig.symmetric a in
      let recon = Eig.reconstruct d in
      if not (Mat.equal ~tol:1e-7 recon a) then
        Alcotest.failf "eig reconstruction failed at n=%d (err %g)" n
          (Mat.max_abs (Mat.sub recon a));
      (* Orthonormality of eigenvectors. *)
      let vtv = Mat.mul (Mat.transpose d.vectors) d.vectors in
      if not (Mat.equal ~tol:1e-7 vtv (Mat.identity n)) then
        Alcotest.failf "eigenvectors not orthonormal at n=%d" n;
      (* Trace = sum of eigenvalues. *)
      check_close "trace = sum eig" 1e-8 (Mat.trace a) (Util.sum_array d.values))
    [ 1; 2; 3; 5; 10; 25; 40 ]

let test_eig_residuals () =
  let rng = Rng.create 53 in
  let a = random_symmetric rng 15 in
  let { Eig.values; vectors } = Eig.symmetric a in
  for i = 0 to 14 do
    let v = Mat.col vectors i in
    let av = Mat.gemv a v in
    let residual = Vec.norm2 (Vec.sub av (Vec.scale values.(i) v)) in
    if residual > 1e-8 *. Float.max 1.0 (Float.abs values.(i)) then
      Alcotest.failf "residual %g too large for eigenpair %d" residual i
  done

let test_eig_psd_nonnegative () =
  let rng = Rng.create 59 in
  let a = random_psd rng 12 in
  let { Eig.values; _ } = Eig.symmetric a in
  Array.iter
    (fun v ->
      if v < -1e-8 then Alcotest.failf "PSD matrix has eigenvalue %g" v)
    values

let test_eig_rejects_asymmetric () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 0.0; 1.0 |] |] in
  Alcotest.check_raises "asymmetric"
    (Invalid_argument "Eig.symmetric: matrix is not symmetric") (fun () ->
      ignore (Eig.symmetric a))

(* lambda_max/lambda_min skip the eigenvector accumulation; the values
   must still be symmetric's, bit for bit. *)
let test_eig_values_only_bit_identical () =
  let rng = Rng.create 61 in
  List.iter
    (fun n ->
      let a = random_symmetric rng n in
      let { Eig.values; _ } = Eig.symmetric a in
      let same what want got =
        if Int64.bits_of_float want <> Int64.bits_of_float got then
          Alcotest.failf "n=%d %s: %.17g vs symmetric's %.17g" n what got want
      in
      same "lambda_max" values.(0) (Eig.lambda_max a);
      same "lambda_min" values.(n - 1) (Eig.lambda_min a))
    [ 1; 2; 12; 64; 161 ]

let test_tridiagonal_values () =
  (* Tridiagonal with diagonal 2 and subdiagonal -1 (discrete Laplacian):
     eigenvalues are 2 - 2 cos(kπ/(n+1)). *)
  let n = 10 in
  let d = Array.make n 2.0 and e = Array.make (n - 1) (-1.0) in
  let values = Eig.tridiagonal_values d e in
  let expected =
    Array.init n (fun k ->
        2.0 -. (2.0 *. cos (float_of_int (n - k) *. Float.pi /. float_of_int (n + 1))))
  in
  Array.iteri
    (fun i v -> check_close (Printf.sprintf "laplacian eig %d" i) 1e-9 v expected.(i))
    values

(* ------------------------------------------------------------------ *)
(* Matfun *)

let test_expm_zero () =
  let z = Mat.create 4 4 in
  Alcotest.(check bool) "exp(0) = I" true
    (Mat.equal ~tol:1e-10 (Matfun.expm z) (Mat.identity 4))

let test_expm_diagonal () =
  let a = Mat.diag [| 0.0; 1.0; -2.0 |] in
  let e = Matfun.expm a in
  check_close "e00" 1e-10 1.0 (Mat.get e 0 0);
  check_close "e11" 1e-10 (exp 1.0) (Mat.get e 1 1);
  check_close "e22" 1e-10 (exp (-2.0)) (Mat.get e 2 2)

let test_expm_vs_taylor () =
  let rng = Rng.create 61 in
  List.iter
    (fun n ->
      let a = random_symmetric rng n in
      let e1 = Matfun.expm a in
      let e2 = Matfun.expm_taylor_squaring a in
      let err =
        Mat.max_abs (Mat.sub e1 e2) /. Float.max 1.0 (Mat.max_abs e1)
      in
      if err > 1e-9 then
        Alcotest.failf "expm implementations disagree at n=%d (err %g)" n err)
    [ 2; 5; 11 ]

let test_expm_taylor_conditioned () =
  (* Accuracy of the Taylor-and-squaring path against the
     eigendecomposition oracle across condition numbers: eigenvalues
     log-spaced on [3/κ, 3] for κ up to 1e8, in a random orthonormal
     basis. Errors are measured relative to ‖exp A‖, which is dominated
     by exp(λmax). *)
  let rng = Rng.create 71 in
  List.iter
    (fun cond ->
      let n = 6 in
      let basis = Qr.orthonormal_columns (random_matrix rng n n) in
      let eigs =
        Array.init n (fun i ->
            3.0 *. exp (-.log cond *. float_of_int i /. float_of_int (n - 1)))
      in
      let a =
        Mat.symmetrize
          (Mat.mul basis (Mat.mul (Mat.diag eigs) (Mat.transpose basis)))
      in
      let oracle = Matfun.expm a in
      let taylor = Matfun.expm_taylor_squaring a in
      let err = Mat.max_abs (Mat.sub oracle taylor) /. Mat.max_abs oracle in
      if err > 1e-10 then
        Alcotest.failf "taylor-squaring off by %g at cond %g" err cond)
    [ 1.0; 1e2; 1e4; 1e6; 1e8 ]

let test_expm_taylor_wide_spectrum () =
  (* Mixed-sign spectrum with large norm: ‖A‖_F starts far above the
     1/4 scaling threshold, so the squaring chain is long and error
     amplification would show here if the term count were too small. *)
  let rng = Rng.create 73 in
  let n = 5 in
  let basis = Qr.orthonormal_columns (random_matrix rng n n) in
  let eigs = [| 30.0; 5.0; 0.0; -5.0; -30.0 |] in
  let a =
    Mat.symmetrize
      (Mat.mul basis (Mat.mul (Mat.diag eigs) (Mat.transpose basis)))
  in
  let oracle = Matfun.expm a in
  let taylor = Matfun.expm_taylor_squaring a in
  let err = Mat.max_abs (Mat.sub oracle taylor) /. Mat.max_abs oracle in
  if err > 1e-9 then Alcotest.failf "wide-spectrum error %g" err

let test_expm_additivity_commuting () =
  (* exp(A+B) = exp(A)exp(B) when A and B commute (same eigenbasis). *)
  let rng = Rng.create 67 in
  let basis = Qr.orthonormal_columns (random_matrix rng 5 5) in
  let make diag =
    Mat.mul basis (Mat.mul (Mat.diag diag) (Mat.transpose basis))
  in
  let a = make [| 0.5; -0.3; 0.2; 0.0; 1.0 |] in
  let b = make [| -0.1; 0.4; 0.3; 0.2; -0.5 |] in
  let lhs = Matfun.expm (Mat.add a b) in
  let rhs = Mat.mul (Matfun.expm a) (Matfun.expm b) in
  Alcotest.(check bool) "exp additive on commuting" true
    (Mat.equal ~tol:1e-8 lhs rhs)

let test_sqrtm () =
  let rng = Rng.create 71 in
  let a = random_psd rng 8 in
  let s = Matfun.sqrtm_psd a in
  Alcotest.(check bool) "sqrt squares back" true
    (Mat.equal ~tol:1e-7 (Mat.mul s s) a)

let test_inv_sqrtm () =
  let rng = Rng.create 73 in
  let a = random_psd rng 6 in
  let is = Matfun.inv_sqrtm_psd a in
  let prod = Mat.mul is (Mat.mul a is) in
  Alcotest.(check bool) "A^{-1/2} A A^{-1/2} = I" true
    (Mat.equal ~tol:1e-6 prod (Mat.identity 6))

let test_inv_psd () =
  let rng = Rng.create 79 in
  let a = random_psd rng 6 in
  let ai = Matfun.inv_psd a in
  Alcotest.(check bool) "A A^{-1} = I" true
    (Mat.equal ~tol:1e-6 (Mat.mul a ai) (Mat.identity 6))

let test_exp_dot () =
  let rng = Rng.create 83 in
  let phi = random_psd rng 5 in
  let a = random_psd rng 5 in
  let direct = Mat.dot (Matfun.expm phi) a in
  check_close "exp_dot" 1e-9 direct (Matfun.exp_dot phi a);
  check_close "exp_trace" 1e-9
    (Mat.trace (Matfun.expm phi))
    (Matfun.exp_trace phi)

(* ------------------------------------------------------------------ *)
(* Lanczos *)

let test_lanczos_diagonal () =
  let d = [| 5.0; 4.0; 3.0; 2.0; 1.0 |] in
  let m = Mat.diag d in
  let est = Lanczos.lambda_max ~dim:5 (Mat.gemv m) in
  check_close "lanczos diagonal" 1e-8 5.0 est

let test_lanczos_random_psd () =
  let rng = Rng.create 89 in
  let a = random_psd rng 30 in
  let exact = Eig.lambda_max a in
  let est = Lanczos.lambda_max ~dim:30 (Mat.gemv a) in
  check_close "lanczos vs exact" 1e-6 exact est

let test_lanczos_low_rank () =
  (* Rank-1 operator: Lanczos must stop early without diverging. *)
  let v = Vec.normalize [| 1.0; 2.0; 3.0; 4.0 |] in
  let matvec x = Vec.scale (2.0 *. Vec.dot v x) v in
  let est = Lanczos.lambda_max ~dim:4 matvec in
  check_close "rank-1" 1e-8 2.0 est

(* ------------------------------------------------------------------ *)
(* Property-based tests *)

let small_dim = QCheck.Gen.int_range 1 8

let gen_symmetric =
  QCheck.Gen.(
    small_dim >>= fun n ->
    int_bound 1_000_000 >|= fun seed ->
    let rng = Rng.create seed in
    Mat.symmetrize (Mat.init n n (fun _ _ -> Rng.gaussian rng)))

let arb_symmetric =
  QCheck.make gen_symmetric ~print:(fun m -> Format.asprintf "%a" Mat.pp m)

let gen_psd =
  QCheck.Gen.(
    small_dim >>= fun n ->
    int_bound 1_000_000 >|= fun seed ->
    let rng = Rng.create seed in
    let g = Mat.init n (n + 1) (fun _ _ -> Rng.gaussian rng) in
    Mat.mul g (Mat.transpose g))

let arb_psd = QCheck.make gen_psd ~print:(fun m -> Format.asprintf "%a" Mat.pp m)

let prop_eig_reconstruct =
  QCheck.Test.make ~name:"eig reconstructs symmetric input" ~count:60
    arb_symmetric (fun a ->
      let d = Eig.symmetric a in
      Mat.equal ~tol:1e-6 (Eig.reconstruct d) a)

let prop_cholesky_roundtrip =
  QCheck.Test.make ~name:"cholesky roundtrip on PSD+ridge" ~count:60 arb_psd
    (fun a ->
      let n = Mat.rows a in
      let ridged = Mat.add a (Mat.scale 1e-6 (Mat.identity n)) in
      let l = Cholesky.factor ridged in
      Mat.equal ~tol:1e-6 (Mat.mul l (Mat.transpose l)) ridged)

let prop_psd_dot_nonneg =
  QCheck.Test.make ~name:"A•B >= 0 for PSD A, B (paper §2.1)" ~count:60
    (QCheck.pair arb_psd arb_psd) (fun (a, b) ->
      QCheck.assume (Mat.rows a = Mat.rows b);
      Mat.dot a b >= -1e-6)

let prop_exp_trace_monotone =
  QCheck.Test.make ~name:"Tr exp(A + cI) = e^c Tr exp(A)" ~count:40
    arb_symmetric (fun a ->
      let n = Mat.rows a in
      let c = 0.7 in
      let shifted = Mat.add a (Mat.scale c (Mat.identity n)) in
      Util.close ~rtol:1e-6
        (Matfun.exp_trace shifted)
        (exp c *. Matfun.exp_trace a))

let prop_lambda_max_subadditive =
  QCheck.Test.make ~name:"λmax(A+B) <= λmax(A) + λmax(B)" ~count:40
    (QCheck.pair arb_symmetric arb_symmetric) (fun (a, b) ->
      QCheck.assume (Mat.rows a = Mat.rows b);
      Eig.lambda_max (Mat.add a b)
      <= Eig.lambda_max a +. Eig.lambda_max b +. 1e-7)

let qcheck_cases =
  List.map
    Qa_harness.to_alcotest
    [
      prop_eig_reconstruct;
      prop_cholesky_roundtrip;
      prop_psd_dot_nonneg;
      prop_exp_trace_monotone;
      prop_lambda_max_subadditive;
    ]

let () =
  Alcotest.run "linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "dot/norms" `Quick test_vec_dot;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "normalize" `Quick test_vec_normalize;
          Alcotest.test_case "dimension mismatch" `Quick test_vec_mismatch;
          Alcotest.test_case "basis" `Quick test_vec_basis;
        ] );
      ( "mat",
        [
          Alcotest.test_case "mul identity" `Quick test_mat_mul_identity;
          Alcotest.test_case "mul known" `Quick test_mat_mul_known;
          Alcotest.test_case "mul parallel" `Quick test_mat_mul_parallel_matches;
          Alcotest.test_case "gemv" `Quick test_mat_gemv;
          Alcotest.test_case "symv blocked vs naive" `Quick
            test_mat_symv_matches_gemv;
          Alcotest.test_case "gemv_many byte-identical" `Quick
            test_mat_gemv_many_byte_identical;
          Alcotest.test_case "trace/dot" `Quick test_mat_trace_dot;
          Alcotest.test_case "transpose" `Quick test_mat_transpose_involution;
          Alcotest.test_case "outer" `Quick test_mat_outer;
          Alcotest.test_case "shape errors" `Quick test_mat_shape_errors;
        ] );
      ( "cholesky",
        [
          Alcotest.test_case "reconstruct" `Quick test_cholesky_reconstruct;
          Alcotest.test_case "solve" `Quick test_cholesky_solve;
          Alcotest.test_case "rejects indefinite" `Quick
            test_cholesky_rejects_indefinite;
          Alcotest.test_case "congruence" `Quick test_cholesky_congruence;
          Alcotest.test_case "congruence ~ C^{-1/2}" `Quick
            test_cholesky_congruence_matches_inv_sqrt;
          Alcotest.test_case "pivoted full rank" `Quick
            test_cholesky_pivoted_full_rank;
          Alcotest.test_case "pivoted low rank" `Quick
            test_cholesky_pivoted_low_rank;
          Alcotest.test_case "pivoted zero/indefinite" `Quick
            test_cholesky_pivoted_zero_and_indefinite;
          Alcotest.test_case "is_psd" `Quick test_cholesky_is_psd;
          Alcotest.test_case "robust: PD no shift" `Quick
            test_factor_robust_pd_no_shift;
          Alcotest.test_case "robust: near-singular shifts" `Quick
            test_factor_robust_near_singular_shifts;
          Alcotest.test_case "robust: rejects rank-deficient" `Quick
            test_factor_robust_rejects_rank_deficient;
          Alcotest.test_case "robust: badly scaled" `Quick
            test_factor_robust_badly_scaled;
          Alcotest.test_case "robust: tiny uniform scale" `Quick
            test_factor_robust_tiny_scale;
        ] );
      ("qr", [ Alcotest.test_case "reconstruct" `Quick test_qr_reconstruct ]);
      ( "eig",
        [
          Alcotest.test_case "diagonal" `Quick test_eig_diagonal;
          Alcotest.test_case "known 2x2" `Quick test_eig_known_2x2;
          Alcotest.test_case "reconstruct random" `Quick
            test_eig_reconstruct_random;
          Alcotest.test_case "residuals" `Quick test_eig_residuals;
          Alcotest.test_case "psd nonnegative" `Quick test_eig_psd_nonnegative;
          Alcotest.test_case "rejects asymmetric" `Quick
            test_eig_rejects_asymmetric;
          Alcotest.test_case "tridiagonal laplacian" `Quick
            test_tridiagonal_values;
          Alcotest.test_case "values only bit-identical" `Quick
            test_eig_values_only_bit_identical;
        ] );
      ( "matfun",
        [
          Alcotest.test_case "exp(0)" `Quick test_expm_zero;
          Alcotest.test_case "exp diagonal" `Quick test_expm_diagonal;
          Alcotest.test_case "expm vs taylor-squaring" `Quick
            test_expm_vs_taylor;
          Alcotest.test_case "taylor-squaring across cond numbers" `Quick
            test_expm_taylor_conditioned;
          Alcotest.test_case "taylor-squaring wide spectrum" `Quick
            test_expm_taylor_wide_spectrum;
          Alcotest.test_case "commuting additivity" `Quick
            test_expm_additivity_commuting;
          Alcotest.test_case "sqrtm" `Quick test_sqrtm;
          Alcotest.test_case "inv_sqrtm" `Quick test_inv_sqrtm;
          Alcotest.test_case "inv_psd" `Quick test_inv_psd;
          Alcotest.test_case "exp_dot/exp_trace" `Quick test_exp_dot;
        ] );
      ( "lanczos",
        [
          Alcotest.test_case "diagonal" `Quick test_lanczos_diagonal;
          Alcotest.test_case "random psd" `Quick test_lanczos_random_psd;
          Alcotest.test_case "low rank" `Quick test_lanczos_low_rank;
        ] );
      ("properties", qcheck_cases);
    ]
