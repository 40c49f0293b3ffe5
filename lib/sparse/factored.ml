open Psdp_prelude
open Psdp_linalg

type t = {
  q : Csr.t;
  qt : Csr.t;  (* transpose, precomputed: both products need both layouts *)
  trace : float;  (* ‖Q‖²_F, cached *)
}

let of_csr q =
  { q; qt = Csr.transpose q; trace = Csr.frobenius_sq q }

let of_dense_factor m = of_csr (Csr.of_dense m)

let of_dense_psd ?(tol = 1e-10) a =
  let { Eig.values; vectors } = Eig.symmetric a in
  let n = Array.length values in
  let lmax = if n = 0 then 0.0 else Float.max 0.0 values.(0) in
  let cutoff = tol *. Float.max 1e-300 lmax in
  if lmax > 0.0 && values.(n - 1) < -.(1e-6 *. lmax) then
    invalid_arg "Factored.of_dense_psd: matrix has a negative eigenvalue";
  (* Keep columns with eigenvalue above the cutoff: Q = V √Λ restricted. *)
  let keep = ref [] in
  for j = n - 1 downto 0 do
    if values.(j) > cutoff then keep := j :: !keep
  done;
  let kept = Array.of_list !keep in
  let r = Array.length kept in
  let factor =
    Mat.init n r (fun i k ->
        Mat.get vectors i kept.(k) *. sqrt values.(kept.(k)))
  in
  of_dense_factor factor

let of_dense_psd_pivoted ?tol a =
  match Cholesky.pivoted ?tol a with
  | f, rank ->
      if rank = 0 then
        invalid_arg "Factored.of_dense_psd_pivoted: matrix is (numerically) zero";
      of_dense_factor f
  | exception Cholesky.Not_positive_definite _ ->
      invalid_arg
        "Factored.of_dense_psd_pivoted: matrix has a negative eigenvalue"

let scale c a =
  if c < 0.0 then invalid_arg "Factored.scale: negative coefficient";
  of_csr (Csr.scale (sqrt c) a.q)

let dim a = Csr.rows a.q
let inner_dim a = Csr.cols a.q
let nnz a = Csr.nnz a.q
let factor a = a.q
let factor_t a = a.qt

let apply ?pool a v = Csr.spmv ?pool a.q (Csr.spmv ?pool a.qt v)

let apply_many ?pool a vs = Csr.spmv_many ?pool a.q (Csr.spmv_many ?pool a.qt vs)

(* Σ_r ‖Qᵀ zs.(r)‖² in ONE sweep of Qᵀ's nonzeros: row j of Qᵀ yields
   u_{r,j} for every column r before moving on, so work tracks
   nnz(Q)·|zs| with each nonzero loaded once (Corollary 1.2's
   nnz-proportional promise, now also cache-proportional). Accumulation
   per (j, r) follows the row's nonzeros in order and the total sums
   per-column subtotals in column order — byte-identical to the
   column-at-a-time [Σ_r ‖spmv qt zs.(r)‖²]. *)
let gram_dot_many a zs =
  let p = Array.length zs in
  if p = 0 then 0.0
  else begin
    let qt = a.qt in
    Array.iter
      (fun z ->
        if Array.length z <> Csr.cols qt then
          invalid_arg "Factored.gram_dot_many: dimension mismatch")
      zs;
    Cost.parallel
      ~work:(2 * Csr.nnz qt * p)
      ~span:(2 * Util.ceil_div (Csr.nnz qt) (max 1 (Csr.rows qt)));
    let { Csr.row_ptr; col_idx; values; _ } = qt in
    let partial = Array.make p 0.0 in
    let urow = Array.make p 0.0 in
    for j = 0 to Csr.rows qt - 1 do
      Array.fill urow 0 p 0.0;
      for k = row_ptr.(j) to row_ptr.(j + 1) - 1 do
        let v = values.(k) and c = col_idx.(k) in
        for r = 0 to p - 1 do
          urow.(r) <- urow.(r) +. (v *. zs.(r).(c))
        done
      done;
      for r = 0 to p - 1 do
        partial.(r) <- partial.(r) +. (urow.(r) *. urow.(r))
      done
    done;
    let s = ref 0.0 in
    for r = 0 to p - 1 do
      s := !s +. partial.(r)
    done;
    !s
  end

let trace a = a.trace

let to_dense a =
  Mat.mul (Csr.to_dense a.q) (Csr.to_dense a.qt)

let dot_dense a s =
  if Mat.rows s <> dim a || Mat.cols s <> dim a then
    invalid_arg "Factored.dot_dense: dimension mismatch";
  (* Tr[QQᵀS] = Σ_j qⱼᵀ S qⱼ, iterating over rows of Qᵀ (= columns of Q). *)
  let total = ref 0.0 in
  let qt = a.qt in
  for j = 0 to Csr.rows qt - 1 do
    (* column j of Q as a sparse row of Qᵀ *)
    let { Csr.row_ptr; col_idx; values; _ } = qt in
    let s_q = Array.make (dim a) 0.0 in
    for k = row_ptr.(j) to row_ptr.(j + 1) - 1 do
      let i = col_idx.(k) and v = values.(k) in
      (* accumulate S * q_j *)
      for t = 0 to dim a - 1 do
        s_q.(t) <- s_q.(t) +. (Mat.get s t i *. v)
      done
    done;
    for k = row_ptr.(j) to row_ptr.(j + 1) - 1 do
      total := !total +. (values.(k) *. s_q.(col_idx.(k)))
    done
  done;
  !total

let quadratic a v =
  let u = Csr.spmv a.qt v in
  Vec.dot u u

let lambda_max a = Float.max 0.0 (Eig.lambda_max (Csr.gram a.q))

let lambda_max_upper a =
  (* λmax(QQᵀ) = ‖Q‖₂² <= min(‖Q‖²_F, ‖Q‖₁·‖Q‖_∞). *)
  let q = a.q in
  let row_abs = Array.make (Csr.rows q) 0.0 in
  let col_abs = Array.make (Csr.cols q) 0.0 in
  let { Csr.row_ptr; col_idx; values; _ } = q in
  for i = 0 to Csr.rows q - 1 do
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let v = Float.abs values.(k) in
      row_abs.(i) <- row_abs.(i) +. v;
      col_abs.(col_idx.(k)) <- col_abs.(col_idx.(k)) +. v
    done
  done;
  let max_of arr = Array.fold_left Float.max 0.0 arr in
  Float.min a.trace (max_of row_abs *. max_of col_abs)
