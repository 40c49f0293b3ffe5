open Psdp_linalg
open Psdp_sparse

type dual = {
  x : float array;
  value : float;
  lambda_max : float;
  feasible : bool;
}

type primal = {
  dots : float array;
  trace : float;
  min_dot : float;
  feasible : bool;
}

let validate_weights inst x =
  if Array.length x <> Instance.num_constraints inst then
    invalid_arg "Certificate: weight vector has wrong length";
  Array.iteri
    (fun i v ->
      if v < 0.0 then
        invalid_arg (Printf.sprintf "Certificate: negative weight x_%d" i))
    x

(* Largest Gram side the check solves densely. *)
let dense_cutoff = 160

(* λmax(Σ xᵢAᵢ) for G = [√x₁Q₁ … √xₙQₙ] (m × r): it is λmax(GGᵀ) and
   λmax(GᵀG). When the smaller side is at most [dense_cutoff], that Gram
   is solved densely and the value is exact up to rounding; past it,
   Lanczos estimates the value from below and inflates it by 1%. *)
let spectrum inst x =
  let factors = Instance.factors inst in
  let m = Instance.dim inst in
  let r = Array.fold_left (fun acc f -> acc + Factored.inner_dim f) 0 factors in
  if min m r <= dense_cutoff then begin
    let g =
      Csr.hconcat
        (Array.mapi
           (fun i f -> Csr.scale (sqrt x.(i)) (Factored.factor f))
           factors)
    in
    let side = if m <= r then Csr.transpose g else g in
    `Exact (Float.max 0.0 (Eig.lambda_max (Csr.gram side)))
  end
  else begin
    let gram = Weighted_gram.create factors in
    Weighted_gram.set_weights gram x;
    `Estimate (Lanczos.lambda_max_upper ~dim:m (Weighted_gram.apply gram))
  end

let psi_lambda_max inst x =
  validate_weights inst x;
  match spectrum inst x with `Exact l | `Estimate l -> l

let dual_record ~tol x lambda_max =
  {
    x;
    value = Psdp_prelude.Util.sum_array x;
    lambda_max;
    feasible = lambda_max <= 1.0 +. tol;
  }

let check_dual ?(tol = 1e-6) inst x =
  dual_record ~tol (Array.copy x) (psi_lambda_max inst x)

(* λmax(x/λ) = λmax(x)/λ = 1, so a scaled record needs no second check. *)
let scaled ~tol x l = dual_record ~tol (Array.map (fun v -> v /. l) x) 1.0

(* An exact λmax lets the dual scale up as well as down, so every answer
   reaches λmax = 1; an estimate may under-report and only scales down. *)
let rescale_dual ?(tol = 1e-6) inst x =
  validate_weights inst x;
  match spectrum inst x with
  | `Exact l when l > 0.0 -> scaled ~tol x l
  | `Estimate l when l > 1.0 -> scaled ~tol x l
  | `Exact l | `Estimate l -> dual_record ~tol (Array.copy x) l

let shrink_dual ?(tol = 1e-6) inst x =
  validate_weights inst x;
  match spectrum inst x with
  | (`Exact l | `Estimate l) when l > 1.0 -> scaled ~tol x l
  | `Exact l | `Estimate l -> dual_record ~tol (Array.copy x) l

let primal_of_dots ?(tol = 1e-6) ~trace dots =
  let min_dot = Psdp_prelude.Util.min_array dots in
  {
    dots = Array.copy dots;
    trace;
    min_dot;
    feasible = min_dot >= 1.0 -. tol && trace <= 1.0 +. tol;
  }

let check_primal ?tol inst y =
  if Mat.rows y <> Instance.dim inst || Mat.cols y <> Instance.dim inst then
    invalid_arg "Certificate.check_primal: dimension mismatch";
  let y = Mat.symmetrize y in
  let dots = Array.map (fun f -> Factored.dot_dense f y) (Instance.factors inst) in
  primal_of_dots ?tol ~trace:(Mat.trace y) dots
