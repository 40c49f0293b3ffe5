(** Compressed sparse row matrices.

    The paper's near-linear work bound (Corollary 1.2) counts non-zeros in
    the factorization; CSR is the storage that realises it. Sparse
    matrix–vector products parallelise over rows. *)

open Psdp_linalg

type t = private {
  rows : int;
  cols : int;
  row_ptr : int array;  (** length [rows + 1] *)
  col_idx : int array;  (** length [nnz], sorted within each row *)
  values : float array;  (** length [nnz] *)
}

val of_coo : rows:int -> cols:int -> (int * int * float) list -> t
(** Builds from coordinate triples; duplicate coordinates are summed,
    explicit zeros dropped. Raises [Invalid_argument] on out-of-range
    indices. *)

val hconcat : t array -> t
(** [hconcat [|a₀; …; aₖ|]] is the block row [[a₀ | … | aₖ]]: block [b]'s
    columns are shifted by the widths of the blocks before it. Explicit
    zeros are dropped, so the result equals {!of_coo} on the shifted
    entries, in O(nnz) and without sorting. Raises [Invalid_argument] on
    an empty array or blocks with different row counts. *)

val of_dense : ?tol:float -> Mat.t -> t
(** Entries with absolute value [<= tol] (default [0.]) are dropped. *)

val to_dense : t -> Mat.t
val identity : int -> t
val nnz : t -> int
val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
(** Logarithmic in the row length. *)

val scale : float -> t -> t
val transpose : t -> t

val spmv : ?pool:Psdp_parallel.Pool.t -> t -> Vec.t -> Vec.t
(** [spmv a x] is [A x], parallel over rows. *)

val spmv_many : ?pool:Psdp_parallel.Pool.t -> t -> Vec.t array -> Vec.t array
(** [spmv_many a xs] is [[| A xs.(0); …; A xs.(p-1) |]] in one pass over
    the nonzeros (each entry is read once and serves every column),
    parallel over rows. Column [r] is byte-identical to [spmv a xs.(r)]. *)

val spmv_t : t -> Vec.t -> Vec.t
(** [Aᵀ x] without materializing the transpose (sequential scatter). *)

val row_dot : t -> int -> Vec.t -> float
(** Dot product of row [i] with a dense vector. *)

val gram : t -> Mat.t
(** [gram a] is the dense [cols × cols] matrix [aᵀa], summed row by row
    of [a] over the outer products of its nonzeros. Exactly symmetric. *)

val frobenius_sq : t -> float
(** [Σ aᵢⱼ²]. *)

val equal : ?tol:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
