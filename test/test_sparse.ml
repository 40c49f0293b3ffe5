(* Tests for CSR matrices, factored PSD matrices and the weighted Gram
   operator. *)

open Psdp_prelude
open Psdp_linalg
open Psdp_sparse

let random_dense rng rows cols density =
  Mat.init rows cols (fun _ _ ->
      if Rng.uniform rng < density then Rng.gaussian rng else 0.0)

(* ------------------------------------------------------------------ *)
(* Csr *)

let test_csr_roundtrip () =
  let rng = Rng.create 3 in
  List.iter
    (fun (r, c, d) ->
      let m = random_dense rng r c d in
      let s = Csr.of_dense m in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %dx%d d=%.1f" r c d)
        true
        (Mat.equal (Csr.to_dense s) m))
    [ (1, 1, 1.0); (5, 7, 0.3); (10, 10, 0.0); (8, 3, 1.0) ]

let test_csr_of_coo_duplicates () =
  let s = Csr.of_coo ~rows:2 ~cols:2 [ (0, 0, 1.0); (0, 0, 2.0); (1, 1, -1.0) ] in
  Alcotest.(check int) "nnz after merge" 2 (Csr.nnz s);
  Alcotest.(check (float 0.0)) "merged value" 3.0 (Csr.get s 0 0)

let test_csr_of_coo_drops_zero () =
  let s = Csr.of_coo ~rows:2 ~cols:2 [ (0, 1, 1.0); (1, 0, -1.0); (1, 0, 1.0) ] in
  Alcotest.(check int) "explicit zero dropped" 1 (Csr.nnz s)

let test_csr_out_of_range () =
  Alcotest.check_raises "row out of range"
    (Invalid_argument "Csr.of_coo: entry (2,0) out of 2x2") (fun () ->
      ignore (Csr.of_coo ~rows:2 ~cols:2 [ (2, 0, 1.0) ]))

let test_csr_get () =
  let rng = Rng.create 5 in
  let m = random_dense rng 9 11 0.4 in
  let s = Csr.of_dense m in
  for i = 0 to 8 do
    for j = 0 to 10 do
      Alcotest.(check (float 0.0))
        (Printf.sprintf "get %d %d" i j)
        (Mat.get m i j) (Csr.get s i j)
    done
  done

let test_csr_spmv_matches_dense () =
  let rng = Rng.create 7 in
  let m = random_dense rng 20 15 0.3 in
  let s = Csr.of_dense m in
  let x = Rng.gaussian_array rng 15 in
  Alcotest.(check bool) "spmv" true
    (Vec.equal ~tol:1e-10 (Csr.spmv s x) (Mat.gemv m x));
  let y = Rng.gaussian_array rng 20 in
  Alcotest.(check bool) "spmv_t" true
    (Vec.equal ~tol:1e-10 (Csr.spmv_t s y) (Mat.gemv_t m y))

let test_csr_spmv_parallel () =
  let rng = Rng.create 11 in
  let m = random_dense rng 300 200 0.1 in
  let s = Csr.of_dense m in
  let x = Rng.gaussian_array rng 200 in
  let seq = Csr.spmv s x in
  Psdp_parallel.Pool.with_pool ~num_domains:4 (fun pool ->
      Alcotest.(check bool) "parallel spmv = sequential" true
        (Vec.equal ~tol:0.0 (Csr.spmv ~pool s x) seq))

(* Differential: the panel SpMV must be byte-identical per column to
   the one-vector SpMV, sequentially and under a pool, including the
   p = 0 and 1-row adversarial shapes. *)
let test_csr_spmv_many_byte_identical () =
  let rng = Rng.create 29 in
  List.iter
    (fun (rows, cols, density, p) ->
      let m = random_dense rng rows cols density in
      let s = Csr.of_dense m in
      let xs = Array.init p (fun _ -> Rng.gaussian_array rng cols) in
      let ys = Csr.spmv_many s xs in
      Array.iteri
        (fun r x ->
          Alcotest.(check bool)
            (Printf.sprintf "spmv_many %dx%d p=%d col %d" rows cols p r)
            true
            (Vec.equal ~tol:0.0 (Csr.spmv s x) ys.(r)))
        xs;
      Psdp_parallel.Pool.with_pool ~num_domains:3 (fun pool ->
          let par = Csr.spmv_many ~pool s xs in
          Array.iteri
            (fun r y ->
              Alcotest.(check bool)
                (Printf.sprintf "parallel spmv_many col %d" r)
                true
                (Vec.equal ~tol:0.0 y par.(r)))
            ys))
    [ (1, 1, 1.0, 1); (20, 15, 0.3, 7); (40, 40, 0.05, 3); (5, 8, 0.5, 0) ]

let test_csr_transpose () =
  let rng = Rng.create 13 in
  let m = random_dense rng 6 9 0.4 in
  let s = Csr.of_dense m in
  Alcotest.(check bool) "transpose" true
    (Mat.equal (Csr.to_dense (Csr.transpose s)) (Mat.transpose m))

let test_csr_identity_scale () =
  let i3 = Csr.identity 3 in
  Alcotest.(check bool) "identity" true
    (Mat.equal (Csr.to_dense i3) (Mat.identity 3));
  let s = Csr.scale 2.5 i3 in
  Alcotest.(check (float 0.0)) "scale" 2.5 (Csr.get s 1 1)

let test_csr_frobenius () =
  let s = Csr.of_coo ~rows:2 ~cols:2 [ (0, 0, 3.0); (1, 0, 4.0) ] in
  Alcotest.(check (float 1e-12)) "frobenius_sq" 25.0 (Csr.frobenius_sq s)

(* ------------------------------------------------------------------ *)
(* Factored *)

let random_factored rng dim rank density =
  let entries = ref [] in
  for i = 0 to dim - 1 do
    for j = 0 to rank - 1 do
      if Rng.uniform rng < density then
        entries := (i, j, Rng.gaussian rng) :: !entries
    done
  done;
  entries := (0, 0, 1.0) :: !entries;
  Factored.of_csr (Csr.of_coo ~rows:dim ~cols:rank !entries)

let test_factored_dense_agree () =
  let rng = Rng.create 17 in
  let f = random_factored rng 10 4 0.5 in
  let dense = Factored.to_dense f in
  Alcotest.(check bool) "dense is symmetric" true (Mat.is_symmetric dense);
  Alcotest.(check bool) "dense is PSD" true (Cholesky.is_psd dense);
  Alcotest.(check (float 1e-9)) "trace" (Mat.trace dense) (Factored.trace f);
  let v = Rng.gaussian_array rng 10 in
  Alcotest.(check bool) "apply" true
    (Vec.equal ~tol:1e-9 (Factored.apply f v) (Mat.gemv dense v));
  Alcotest.(check (float 1e-9)) "quadratic" (Vec.dot v (Mat.gemv dense v))
    (Factored.quadratic f v)

(* Differential: the batched factored kernels against their
   column-at-a-time references, byte-for-byte. *)
let test_factored_batched_kernels () =
  let rng = Rng.create 41 in
  List.iter
    (fun (dim, rank, density, p) ->
      let f = random_factored rng dim rank density in
      let vs = Array.init p (fun _ -> Rng.gaussian_array rng dim) in
      let ys = Factored.apply_many f vs in
      Array.iteri
        (fun r v ->
          Alcotest.(check bool)
            (Printf.sprintf "apply_many dim=%d p=%d col %d" dim p r)
            true
            (Vec.equal ~tol:0.0 (Factored.apply f v) ys.(r)))
        vs;
      let qt = Factored.factor_t f in
      let want =
        Array.fold_left
          (fun acc v ->
            let u = Csr.spmv qt v in
            acc +. Vec.dot u u)
          0.0 vs
      in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "gram_dot_many dim=%d p=%d" dim p)
        want
        (Factored.gram_dot_many f vs))
    [ (1, 1, 1.0, 1); (10, 4, 0.5, 6); (16, 3, 0.2, 2); (8, 2, 0.7, 0) ]

let test_factored_dot_dense () =
  let rng = Rng.create 19 in
  let f = random_factored rng 8 3 0.6 in
  let s = Mat.symmetrize (Mat.init 8 8 (fun _ _ -> Rng.gaussian rng)) in
  Alcotest.(check (float 1e-8)) "dot_dense"
    (Mat.dot (Factored.to_dense f) s)
    (Factored.dot_dense f s)

let test_factored_lambda_max () =
  let rng = Rng.create 23 in
  let f = random_factored rng 12 5 0.5 in
  let exact = Eig.lambda_max (Factored.to_dense f) in
  Alcotest.(check (float 1e-6)) "lambda_max via QtQ" exact (Factored.lambda_max f);
  Alcotest.(check bool) "upper bound dominates" true
    (Factored.lambda_max_upper f >= exact -. 1e-9)

let test_factored_scale () =
  let rng = Rng.create 29 in
  let f = random_factored rng 6 2 0.7 in
  let g = Factored.scale 3.0 f in
  Alcotest.(check bool) "scale" true
    (Mat.equal ~tol:1e-9 (Factored.to_dense g)
       (Mat.scale 3.0 (Factored.to_dense f)));
  Alcotest.check_raises "negative scale"
    (Invalid_argument "Factored.scale: negative coefficient") (fun () ->
      ignore (Factored.scale (-1.0) f))

let test_factored_of_dense_psd () =
  let rng = Rng.create 31 in
  let g = Mat.init 7 5 (fun _ _ -> Rng.gaussian rng) in
  let a = Mat.mul g (Mat.transpose g) in
  let f = Factored.of_dense_psd a in
  Alcotest.(check bool) "reconstruction" true
    (Mat.equal ~tol:1e-7 (Factored.to_dense f) a);
  Alcotest.(check bool) "rank detected" true (Factored.inner_dim f <= 5);
  let indef = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.check_raises "rejects indefinite"
    (Invalid_argument "Factored.of_dense_psd: matrix has a negative eigenvalue")
    (fun () -> ignore (Factored.of_dense_psd indef))

let test_factored_pivoted_matches_eig () =
  let rng = Rng.create 139 in
  let g = Mat.init 9 4 (fun _ _ -> Rng.gaussian rng) in
  let a = Mat.mul g (Mat.transpose g) in
  let via_eig = Factored.of_dense_psd a in
  let via_pivot = Factored.of_dense_psd_pivoted a in
  Alcotest.(check bool) "same dense matrix" true
    (Mat.equal ~tol:1e-7 (Factored.to_dense via_eig) (Factored.to_dense via_pivot));
  Alcotest.(check int) "same rank" (Factored.inner_dim via_eig)
    (Factored.inner_dim via_pivot);
  let indef = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.check_raises "rejects indefinite"
    (Invalid_argument
       "Factored.of_dense_psd_pivoted: matrix has a negative eigenvalue")
    (fun () -> ignore (Factored.of_dense_psd_pivoted indef))

(* Block rows built by concatenation must equal the sorted COO build
   array for array — empty rows and explicit zeros included. *)
let test_csr_hconcat_matches_coo () =
  let rng = Rng.create 41 in
  let dim = 7 in
  (* Row 4 stays empty in every block. *)
  let block cols density =
    let entries = ref [] in
    for i = 0 to dim - 1 do
      for j = 0 to cols - 1 do
        if i <> 4 && Rng.uniform rng < density then
          entries := (i, j, Rng.gaussian rng) :: !entries
      done
    done;
    Csr.of_coo ~rows:dim ~cols !entries
  in
  let blocks =
    [|
      block 3 0.3;
      Csr.of_coo ~rows:dim ~cols:2 [ (2, 1, 1.5) ];
      Csr.scale 0.0 (block 2 0.5);
      Csr.of_coo ~rows:dim ~cols:4 [];
      block 5 0.6;
    |]
  in
  let entries = ref [] and offset = ref 0 in
  Array.iter
    (fun (b : Csr.t) ->
      for r = 0 to b.Csr.rows - 1 do
        for k = b.Csr.row_ptr.(r) to b.Csr.row_ptr.(r + 1) - 1 do
          entries := (r, !offset + b.Csr.col_idx.(k), b.Csr.values.(k)) :: !entries
        done
      done;
      offset := !offset + b.Csr.cols)
    blocks;
  let want = Csr.of_coo ~rows:dim ~cols:!offset !entries in
  let got = Csr.hconcat blocks in
  Alcotest.(check bool) "has an empty row" true
    (Array.exists (fun r -> want.Csr.row_ptr.(r) = want.Csr.row_ptr.(r + 1))
       (Array.init dim Fun.id));
  Alcotest.(check (pair int int)) "shape" (want.Csr.rows, want.Csr.cols)
    (got.Csr.rows, got.Csr.cols);
  Alcotest.(check (array int)) "row_ptr" want.Csr.row_ptr got.Csr.row_ptr;
  Alcotest.(check (array int)) "col_idx" want.Csr.col_idx got.Csr.col_idx;
  Alcotest.(check bool) "values bit-identical" true
    (Array.map Int64.bits_of_float want.Csr.values
    = Array.map Int64.bits_of_float got.Csr.values);
  Alcotest.check_raises "no blocks" (Invalid_argument "Csr.hconcat: no blocks")
    (fun () -> ignore (Csr.hconcat [||]));
  Alcotest.check_raises "row mismatch"
    (Invalid_argument "Csr.hconcat: a block has 3 rows, expected 7") (fun () ->
      ignore (Csr.hconcat [| blocks.(0); Csr.identity 3 |]))

let test_csr_gram () =
  let rng = Rng.create 43 in
  let a = Factored.factor (random_factored rng 9 5 0.5) in
  let d = Csr.to_dense a in
  let g = Csr.gram a in
  Alcotest.(check bool) "= AᵀA" true
    (Mat.equal ~tol:1e-12 g (Mat.mul (Mat.transpose d) d));
  Alcotest.(check bool) "exactly symmetric" true (Mat.equal g (Mat.transpose g))

(* ------------------------------------------------------------------ *)
(* Weighted_gram *)

let test_gram_matches_dense_sum () =
  let rng = Rng.create 37 in
  let n = 5 and dim = 9 in
  let factors = Array.init n (fun _ -> random_factored rng dim 3 0.5) in
  let gram = Weighted_gram.create factors in
  let x = Array.init n (fun _ -> Rng.uniform rng) in
  Weighted_gram.set_weights gram x;
  let dense = Mat.create dim dim in
  Array.iteri
    (fun i f -> Mat.axpy dense ~alpha:x.(i) (Factored.to_dense f))
    factors;
  let v = Rng.gaussian_array rng dim in
  Alcotest.(check bool) "apply = dense" true
    (Vec.equal ~tol:1e-8 (Weighted_gram.apply gram v) (Mat.gemv dense v));
  Alcotest.(check (float 1e-8)) "trace" (Mat.trace dense)
    (Weighted_gram.trace gram);
  Alcotest.(check bool) "to_dense" true
    (Mat.equal ~tol:1e-9 (Weighted_gram.to_dense gram) dense)

(* Differential: the panel Ψ(x)-application must be byte-identical per
   column to the one-vector application — the batched polynomial
   chains in bigDotExp depend on this equality. *)
let test_gram_apply_many_byte_identical () =
  let rng = Rng.create 47 in
  let n = 4 and dim = 12 in
  let factors = Array.init n (fun _ -> random_factored rng dim 3 0.5) in
  let gram = Weighted_gram.create factors in
  Weighted_gram.set_weights gram (Array.init n (fun _ -> Rng.uniform rng)) ;
  let vs = Array.init 6 (fun _ -> Rng.gaussian_array rng dim) in
  let ys = Weighted_gram.apply_many gram vs in
  Array.iteri
    (fun r v ->
      Alcotest.(check bool)
        (Printf.sprintf "apply_many col %d" r)
        true
        (Vec.equal ~tol:0.0 (Weighted_gram.apply gram v) ys.(r)))
    vs;
  Psdp_parallel.Pool.with_pool ~num_domains:3 (fun pool ->
      let par = Weighted_gram.apply_many ~pool gram vs in
      Array.iteri
        (fun r y ->
          Alcotest.(check bool)
            (Printf.sprintf "parallel apply_many col %d" r)
            true
            (Vec.equal ~tol:0.0 y par.(r)))
        ys)

let test_gram_weight_updates () =
  let rng = Rng.create 41 in
  let factors = Array.init 3 (fun _ -> random_factored rng 6 2 0.8) in
  let gram = Weighted_gram.create factors in
  Weighted_gram.set_weights gram [| 1.0; 0.0; 0.0 |];
  let v = Rng.gaussian_array rng 6 in
  Alcotest.(check bool) "single factor" true
    (Vec.equal ~tol:1e-9
       (Weighted_gram.apply gram v)
       (Factored.apply factors.(0) v));
  (* Weights can be re-set cheaply. *)
  Weighted_gram.set_weights gram [| 0.0; 2.0; 0.0 |];
  Alcotest.(check bool) "after update" true
    (Vec.equal ~tol:1e-9
       (Weighted_gram.apply gram v)
       (Vec.scale 2.0 (Factored.apply factors.(1) v)))

let test_gram_rejects_bad_weights () =
  let rng = Rng.create 43 in
  let factors = Array.init 2 (fun _ -> random_factored rng 4 2 0.8) in
  let gram = Weighted_gram.create factors in
  Alcotest.check_raises "negative"
    (Invalid_argument "Weighted_gram.set_weights: negative weight") (fun () ->
      Weighted_gram.set_weights gram [| 1.0; -0.5 |]);
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Weighted_gram.set_weights: wrong length") (fun () ->
      Weighted_gram.set_weights gram [| 1.0 |])

let test_gram_lambda_upper () =
  let rng = Rng.create 47 in
  let factors = Array.init 4 (fun _ -> random_factored rng 8 3 0.5) in
  let gram = Weighted_gram.create factors in
  let x = Array.init 4 (fun _ -> Rng.uniform rng) in
  Weighted_gram.set_weights gram x;
  let exact = Eig.lambda_max (Weighted_gram.to_dense gram) in
  Alcotest.(check bool) "upper bound" true
    (Weighted_gram.lambda_max_upper_bound gram >= exact -. 1e-9)

let test_gram_dimension_mismatch () =
  let rng = Rng.create 53 in
  let f1 = random_factored rng 4 2 0.8 and f2 = random_factored rng 5 2 0.8 in
  Alcotest.check_raises "mixed dims"
    (Invalid_argument
       "Weighted_gram.create: factor 1 has dimension 5, expected 4")
    (fun () -> ignore (Weighted_gram.create [| f1; f2 |]))

(* ------------------------------------------------------------------ *)
(* Properties *)

let arb_sparse =
  let gen =
    QCheck.Gen.(
      pair (int_range 1 12) (pair (int_range 1 12) (int_bound 1_000_000))
      >|= fun (r, (c, seed)) ->
      let rng = Rng.create seed in
      let m =
        Mat.init r c (fun _ _ ->
            if Rng.uniform rng < 0.4 then Rng.gaussian rng else 0.0)
      in
      m)
  in
  QCheck.make gen ~print:(fun m -> Format.asprintf "%a" Mat.pp m)

let prop_csr_roundtrip =
  QCheck.Test.make ~name:"csr dense roundtrip" ~count:100 arb_sparse (fun m ->
      Mat.equal (Csr.to_dense (Csr.of_dense m)) m)

let prop_csr_spmv =
  QCheck.Test.make ~name:"spmv matches dense gemv" ~count:100
    (QCheck.pair arb_sparse (QCheck.int_bound 1_000_000)) (fun (m, seed) ->
      let rng = Rng.create seed in
      let x = Rng.gaussian_array rng (Mat.cols m) in
      Vec.equal ~tol:1e-9 (Csr.spmv (Csr.of_dense m) x) (Mat.gemv m x))

let prop_transpose_involution =
  QCheck.Test.make ~name:"csr transpose involution" ~count:100 arb_sparse
    (fun m ->
      let s = Csr.of_dense m in
      Csr.equal (Csr.transpose (Csr.transpose s)) s)

let prop_factored_psd =
  QCheck.Test.make ~name:"factored quadratic forms are non-negative" ~count:60
    (QCheck.pair arb_sparse (QCheck.int_bound 1_000_000)) (fun (m, seed) ->
      let f = Factored.of_csr (Csr.of_dense m) in
      let rng = Rng.create seed in
      let v = Rng.gaussian_array rng (Mat.rows m) in
      Factored.quadratic f v >= -1e-9)

let qcheck_cases =
  List.map
    Qa_harness.to_alcotest
    [ prop_csr_roundtrip; prop_csr_spmv; prop_transpose_involution; prop_factored_psd ]

let () =
  Alcotest.run "sparse"
    [
      ( "csr",
        [
          Alcotest.test_case "roundtrip" `Quick test_csr_roundtrip;
          Alcotest.test_case "coo duplicates" `Quick test_csr_of_coo_duplicates;
          Alcotest.test_case "coo zero drop" `Quick test_csr_of_coo_drops_zero;
          Alcotest.test_case "out of range" `Quick test_csr_out_of_range;
          Alcotest.test_case "get" `Quick test_csr_get;
          Alcotest.test_case "spmv" `Quick test_csr_spmv_matches_dense;
          Alcotest.test_case "spmv parallel" `Quick test_csr_spmv_parallel;
          Alcotest.test_case "spmv_many byte-identical" `Quick
            test_csr_spmv_many_byte_identical;
          Alcotest.test_case "transpose" `Quick test_csr_transpose;
          Alcotest.test_case "identity/scale" `Quick test_csr_identity_scale;
          Alcotest.test_case "frobenius" `Quick test_csr_frobenius;
          Alcotest.test_case "hconcat matches coo" `Quick
            test_csr_hconcat_matches_coo;
          Alcotest.test_case "gram" `Quick test_csr_gram;
        ] );
      ( "factored",
        [
          Alcotest.test_case "dense agreement" `Quick test_factored_dense_agree;
          Alcotest.test_case "batched kernels byte-identical" `Quick
            test_factored_batched_kernels;
          Alcotest.test_case "dot_dense" `Quick test_factored_dot_dense;
          Alcotest.test_case "lambda_max" `Quick test_factored_lambda_max;
          Alcotest.test_case "scale" `Quick test_factored_scale;
          Alcotest.test_case "of_dense_psd" `Quick test_factored_of_dense_psd;
          Alcotest.test_case "pivoted matches eig" `Quick
            test_factored_pivoted_matches_eig;
        ] );
      ( "weighted_gram",
        [
          Alcotest.test_case "matches dense sum" `Quick
            test_gram_matches_dense_sum;
          Alcotest.test_case "apply_many byte-identical" `Quick
            test_gram_apply_many_byte_identical;
          Alcotest.test_case "weight updates" `Quick test_gram_weight_updates;
          Alcotest.test_case "rejects bad weights" `Quick
            test_gram_rejects_bad_weights;
          Alcotest.test_case "lambda upper bound" `Quick test_gram_lambda_upper;
          Alcotest.test_case "dimension mismatch" `Quick
            test_gram_dimension_mismatch;
        ] );
      ("properties", qcheck_cases);
    ]
