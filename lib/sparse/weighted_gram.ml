open Psdp_linalg

type t = {
  dim : int;
  factors : Factored.t array;
  q : Csr.t;  (* m × R concatenation of all factors *)
  qt : Csr.t;  (* R × m *)
  owner : int array;  (* column j of q belongs to constraint owner.(j) *)
  col_weight : float array;  (* w_j = x_{owner j}, kept in sync *)
  x : float array;  (* current constraint weights *)
  traces : float array;  (* Tr Aᵢ, cached *)
  lmax_uppers : float array;  (* per-constraint λmax upper bounds *)
}

let create factors =
  let n = Array.length factors in
  if n = 0 then invalid_arg "Weighted_gram.create: no factors";
  let dim = Factored.dim factors.(0) in
  Array.iteri
    (fun i f ->
      if Factored.dim f <> dim then
        invalid_arg
          (Printf.sprintf
             "Weighted_gram.create: factor %d has dimension %d, expected %d" i
             (Factored.dim f) dim))
    factors;
  let total_cols =
    Array.fold_left (fun acc f -> acc + Factored.inner_dim f) 0 factors
  in
  let owner = Array.make total_cols 0 in
  let col_base = ref 0 in
  Array.iteri
    (fun i f ->
      for c = 0 to Factored.inner_dim f - 1 do
        owner.(!col_base + c) <- i
      done;
      col_base := !col_base + Factored.inner_dim f)
    factors;
  let q = Csr.hconcat (Array.map Factored.factor factors) in
  {
    dim;
    factors;
    q;
    qt = Csr.transpose q;
    owner;
    col_weight = Array.make total_cols 0.0;
    x = Array.make n 0.0;
    traces = Array.map Factored.trace factors;
    lmax_uppers = Array.map Factored.lambda_max_upper factors;
  }

let dim t = t.dim
let num_constraints t = Array.length t.factors
let nnz t = Csr.nnz t.q

let set_weights t x =
  if Array.length x <> Array.length t.x then
    invalid_arg "Weighted_gram.set_weights: wrong length";
  Array.iteri
    (fun i v ->
      if v < 0.0 then invalid_arg "Weighted_gram.set_weights: negative weight";
      t.x.(i) <- v)
    x;
  for j = 0 to Array.length t.owner - 1 do
    t.col_weight.(j) <- t.x.(t.owner.(j))
  done

let weights t = Array.copy t.x

let apply ?pool t v =
  let u = Csr.spmv ?pool t.qt v in
  for j = 0 to Array.length u - 1 do
    u.(j) <- u.(j) *. t.col_weight.(j)
  done;
  Csr.spmv ?pool t.q u

(* Panel application: both sparse products sweep their nonzeros once for
   all columns. Per column the arithmetic matches [apply] exactly. *)
let apply_many ?pool t vs =
  let us = Csr.spmv_many ?pool t.qt vs in
  Array.iter
    (fun u ->
      for j = 0 to Array.length u - 1 do
        u.(j) <- u.(j) *. t.col_weight.(j)
      done)
    us;
  Csr.spmv_many ?pool t.q us

let trace t =
  let s = ref 0.0 in
  for i = 0 to Array.length t.x - 1 do
    s := !s +. (t.x.(i) *. t.traces.(i))
  done;
  !s

let to_dense t =
  let acc = Mat.create t.dim t.dim in
  Array.iteri
    (fun i f ->
      if t.x.(i) <> 0.0 then
        Mat.axpy acc ~alpha:t.x.(i) (Factored.to_dense f))
    t.factors;
  acc

let lambda_max_upper_bound t =
  let s = ref 0.0 in
  for i = 0 to Array.length t.x - 1 do
    s := !s +. (t.x.(i) *. t.lmax_uppers.(i))
  done;
  !s
