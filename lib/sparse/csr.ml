open Psdp_prelude
open Psdp_linalg

type t = {
  rows : int;
  cols : int;
  row_ptr : int array;
  col_idx : int array;
  values : float array;
}

let nnz t = Array.length t.values
let rows t = t.rows
let cols t = t.cols

let of_coo ~rows ~cols entries =
  if rows < 0 || cols < 0 then invalid_arg "Csr.of_coo: negative dimension";
  List.iter
    (fun (i, j, _) ->
      if i < 0 || i >= rows || j < 0 || j >= cols then
        invalid_arg
          (Printf.sprintf "Csr.of_coo: entry (%d,%d) out of %dx%d" i j rows cols))
    entries;
  let sorted =
    List.sort
      (fun (i1, j1, _) (i2, j2, _) -> compare (i1, j1) (i2, j2))
      entries
  in
  (* Merge duplicates and drop zeros. *)
  let merged = ref [] in
  List.iter
    (fun (i, j, v) ->
      match !merged with
      | (i', j', v') :: rest when i = i' && j = j' ->
          merged := (i, j, v +. v') :: rest
      | _ -> merged := (i, j, v) :: !merged)
    sorted;
  let cells = List.filter (fun (_, _, v) -> v <> 0.0) (List.rev !merged) in
  let n = List.length cells in
  let row_ptr = Array.make (rows + 1) 0 in
  let col_idx = Array.make n 0 in
  let values = Array.make n 0.0 in
  List.iteri
    (fun k (i, j, v) ->
      row_ptr.(i + 1) <- row_ptr.(i + 1) + 1;
      col_idx.(k) <- j;
      values.(k) <- v)
    cells;
  for i = 0 to rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  { rows; cols; row_ptr; col_idx; values }

let hconcat blocks =
  if Array.length blocks = 0 then invalid_arg "Csr.hconcat: no blocks";
  let rows = blocks.(0).rows in
  Array.iter
    (fun b ->
      if b.rows <> rows then
        invalid_arg
          (Printf.sprintf "Csr.hconcat: a block has %d rows, expected %d"
             b.rows rows))
    blocks;
  let row_ptr = Array.make (rows + 1) 0 in
  for i = 0 to rows - 1 do
    let kept = ref 0 in
    Array.iter
      (fun b ->
        for k = b.row_ptr.(i) to b.row_ptr.(i + 1) - 1 do
          if b.values.(k) <> 0.0 then incr kept
        done)
      blocks;
    row_ptr.(i + 1) <- row_ptr.(i) + !kept
  done;
  let col_idx = Array.make row_ptr.(rows) 0 in
  let values = Array.make row_ptr.(rows) 0.0 in
  for i = 0 to rows - 1 do
    let pos = ref row_ptr.(i) and offset = ref 0 in
    Array.iter
      (fun b ->
        for k = b.row_ptr.(i) to b.row_ptr.(i + 1) - 1 do
          if b.values.(k) <> 0.0 then begin
            col_idx.(!pos) <- !offset + b.col_idx.(k);
            values.(!pos) <- b.values.(k);
            incr pos
          end
        done;
        offset := !offset + b.cols)
      blocks
  done;
  let cols = Array.fold_left (fun acc b -> acc + b.cols) 0 blocks in
  { rows; cols; row_ptr; col_idx; values }

let of_dense ?(tol = 0.0) m =
  let entries = ref [] in
  for i = Mat.rows m - 1 downto 0 do
    for j = Mat.cols m - 1 downto 0 do
      let v = Mat.get m i j in
      if Float.abs v > tol then entries := (i, j, v) :: !entries
    done
  done;
  of_coo ~rows:(Mat.rows m) ~cols:(Mat.cols m) !entries

let to_dense t =
  let m = Mat.create t.rows t.cols in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      Mat.set m i t.col_idx.(k) t.values.(k)
    done
  done;
  m

let identity n = of_coo ~rows:n ~cols:n (List.init n (fun i -> (i, i, 1.0)))

let get t i j =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then
    invalid_arg "Csr.get: out of range";
  (* Binary search within the row: column indices are sorted. *)
  let lo = ref t.row_ptr.(i) and hi = ref (t.row_ptr.(i + 1) - 1) in
  let result = ref 0.0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = t.col_idx.(mid) in
    if c = j then begin
      result := t.values.(mid);
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !result

let scale alpha t = { t with values = Array.map (fun v -> alpha *. v) t.values }

let transpose t =
  let n = nnz t in
  let counts = Array.make (t.cols + 1) 0 in
  for k = 0 to n - 1 do
    counts.(t.col_idx.(k) + 1) <- counts.(t.col_idx.(k) + 1) + 1
  done;
  for j = 0 to t.cols - 1 do
    counts.(j + 1) <- counts.(j + 1) + counts.(j)
  done;
  let row_ptr = Array.copy counts in
  let col_idx = Array.make n 0 in
  let values = Array.make n 0.0 in
  let cursor = Array.copy counts in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = t.col_idx.(k) in
      let pos = cursor.(j) in
      cursor.(j) <- pos + 1;
      col_idx.(pos) <- i;
      values.(pos) <- t.values.(k)
    done
  done;
  { rows = t.cols; cols = t.rows; row_ptr; col_idx; values }

let spmv ?(pool = Psdp_parallel.Pool.sequential) t x =
  if Array.length x <> t.cols then invalid_arg "Csr.spmv: dimension mismatch";
  Cost.parallel ~work:(2 * nnz t) ~span:(2 * Util.ceil_div (nnz t) (max 1 t.rows));
  let y = Array.make t.rows 0.0 in
  Psdp_parallel.Pool.parallel_for_chunks pool ~lo:0 ~hi:t.rows
    (fun row_lo row_hi ->
      for i = row_lo to row_hi - 1 do
        let s = ref 0.0 in
        for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
          s := !s +. (t.values.(k) *. x.(t.col_idx.(k)))
        done;
        y.(i) <- !s
      done);
  y

(* Panel SpMV: one pass over the nonzeros serves every column. Per
   (row, column) the accumulation order over the row's nonzeros is
   identical to {!spmv}, so column [r] of the result is byte-identical
   to [spmv t xs.(r)] — the differential tests depend on it. *)
let spmv_many ?(pool = Psdp_parallel.Pool.sequential) t xs =
  let p = Array.length xs in
  Array.iter
    (fun x ->
      if Array.length x <> t.cols then
        invalid_arg "Csr.spmv_many: dimension mismatch")
    xs;
  Cost.parallel
    ~work:(2 * nnz t * max 1 p)
    ~span:(2 * Util.ceil_div (nnz t) (max 1 t.rows));
  let ys = Array.init p (fun _ -> Array.make t.rows 0.0) in
  if p > 0 then
    Psdp_parallel.Pool.parallel_for_chunks pool ~lo:0 ~hi:t.rows
      (fun row_lo row_hi ->
        let acc = Array.make p 0.0 in
        for i = row_lo to row_hi - 1 do
          Array.fill acc 0 p 0.0;
          for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
            let v = t.values.(k) and c = t.col_idx.(k) in
            for r = 0 to p - 1 do
              acc.(r) <- acc.(r) +. (v *. xs.(r).(c))
            done
          done;
          for r = 0 to p - 1 do
            ys.(r).(i) <- acc.(r)
          done
        done);
  ys

let spmv_t t x =
  if Array.length x <> t.rows then
    invalid_arg "Csr.spmv_t: dimension mismatch";
  Cost.serial (2 * nnz t);
  let y = Array.make t.cols 0.0 in
  for i = 0 to t.rows - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        y.(t.col_idx.(k)) <- y.(t.col_idx.(k)) +. (xi *. t.values.(k))
      done
  done;
  y

let row_dot t i x =
  if i < 0 || i >= t.rows then invalid_arg "Csr.row_dot: row out of range";
  if Array.length x <> t.cols then invalid_arg "Csr.row_dot: dimension";
  let s = ref 0.0 in
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    s := !s +. (t.values.(k) *. x.(t.col_idx.(k)))
  done;
  !s

let gram t =
  let n = t.cols in
  let g = Array.make (n * n) 0.0 in
  (* Upper triangle: column indices ascend within a row. *)
  for i = 0 to t.rows - 1 do
    let last = t.row_ptr.(i + 1) - 1 in
    for a = t.row_ptr.(i) to last do
      let base = t.col_idx.(a) * n and va = t.values.(a) in
      for b = a to last do
        let at = base + t.col_idx.(b) in
        g.(at) <- g.(at) +. (va *. t.values.(b))
      done
    done
  done;
  for j1 = 0 to n - 1 do
    for j2 = j1 + 1 to n - 1 do
      g.((j2 * n) + j1) <- g.((j1 * n) + j2)
    done
  done;
  Mat.of_array ~rows:n ~cols:n g

let frobenius_sq t =
  Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 t.values

let equal ?tol a b =
  a.rows = b.rows && a.cols = b.cols
  && Mat.equal ?tol (to_dense a) (to_dense b)

let pp ppf t =
  Format.fprintf ppf "csr %dx%d nnz=%d" t.rows t.cols (nnz t)
