open Psdp_prelude

type decomposition = { values : float array; vectors : Mat.t }

exception No_convergence

(* Householder reduction of a symmetric matrix to tridiagonal form. On
   return [d] holds the diagonal and [e] the subdiagonal shifted so that
   [e.(i)] couples rows [i] and [i+1] ([e.(n-1)] is zero). With
   [~vectors:true], [z] also holds the orthogonal transformation (columns
   will become eigenvectors after the QL pass); without, the upper
   triangle of [z] is left unspecified and the accumulation pass is
   skipped. [d] and [e] get the same arithmetic either way. Classical
   "tred2" with 0-based indexing. *)
let tridiagonalize ~vectors z n d e =
  let zget i j = Mat.get z i j and zset i j v = Mat.set z i j v in
  for i = n - 1 downto 1 do
    let l = i - 1 in
    let h = ref 0.0 in
    if l > 0 then begin
      let scale = ref 0.0 in
      for k = 0 to l do
        scale := !scale +. Float.abs (zget i k)
      done;
      if !scale = 0.0 then e.(i) <- zget i l
      else begin
        for k = 0 to l do
          zset i k (zget i k /. !scale);
          h := !h +. Util.square (zget i k)
        done;
        let f = zget i l in
        let g = if f >= 0.0 then -.sqrt !h else sqrt !h in
        e.(i) <- !scale *. g;
        h := !h -. (f *. g);
        zset i l (f -. g);
        let fsum = ref 0.0 in
        for j = 0 to l do
          if vectors then zset j i (zget i j /. !h);
          let g = ref 0.0 in
          for k = 0 to j do
            g := !g +. (zget j k *. zget i k)
          done;
          for k = j + 1 to l do
            g := !g +. (zget k j *. zget i k)
          done;
          e.(j) <- !g /. !h;
          fsum := !fsum +. (e.(j) *. zget i j)
        done;
        let hh = !fsum /. (!h +. !h) in
        for j = 0 to l do
          let f = zget i j in
          let gj = e.(j) -. (hh *. f) in
          e.(j) <- gj;
          for k = 0 to j do
            zset j k (zget j k -. ((f *. e.(k)) +. (gj *. zget i k)))
          done
        done
      end
    end
    else e.(i) <- zget i l;
    d.(i) <- !h
  done;
  d.(0) <- 0.0;
  e.(0) <- 0.0;
  for i = 0 to n - 1 do
    let l = i - 1 in
    if vectors && d.(i) <> 0.0 then
      for j = 0 to l do
        let g = ref 0.0 in
        for k = 0 to l do
          g := !g +. (zget i k *. zget k j)
        done;
        for k = 0 to l do
          zset k j (zget k j -. (!g *. zget k i))
        done
      done;
    (* The accumulation for row i only touches the leading i×i block, so
       the diagonal entry read here is the reduction's either way. *)
    d.(i) <- zget i i;
    if vectors then begin
      zset i i 1.0;
      for j = 0 to l do
        zset j i 0.0;
        zset i j 0.0
      done
    end
  done;
  (* Shift e to the convention e.(i) couples i and i+1. *)
  for i = 1 to n - 1 do
    e.(i - 1) <- e.(i)
  done;
  e.(n - 1) <- 0.0

let hypot_ a b = Float.hypot a b
let sign_of a b = if b >= 0.0 then Float.abs a else -.Float.abs a

(* Implicit-shift QL iteration on a symmetric tridiagonal matrix.
   [d]: diagonal (length n), [e]: subdiagonal with e.(i) coupling i,i+1
   (e.(n-1) = 0). When [z] is given, its columns are rotated along so
   that column i ends up as the eigenvector of d.(i). Classical "tqli". *)
let ql_implicit d e ?z n =
  let rotate =
    match z with
    | None -> fun _ _ _ _ -> ()
    | Some z ->
        fun i s c f_unused ->
          ignore f_unused;
          for k = 0 to n - 1 do
            let f = Mat.get z k (i + 1) in
            Mat.set z k (i + 1) ((s *. Mat.get z k i) +. (c *. f));
            Mat.set z k i ((c *. Mat.get z k i) -. (s *. f))
          done
  in
  for l = 0 to n - 1 do
    let iter = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      (* Look for a negligible subdiagonal element to split the matrix. *)
      let m = ref l in
      let found = ref false in
      while (not !found) && !m < n - 1 do
        let dd = Float.abs d.(!m) +. Float.abs d.(!m + 1) in
        if Float.abs e.(!m) <= 1e-15 *. dd then found := true
        else incr m
      done;
      if !m = l then continue_ := false
      else begin
        incr iter;
        if !iter > 60 then raise No_convergence;
        let g = ref ((d.(l + 1) -. d.(l)) /. (2.0 *. e.(l))) in
        let r = ref (hypot_ !g 1.0) in
        g := d.(!m) -. d.(l) +. (e.(l) /. (!g +. sign_of !r !g));
        let s = ref 1.0 and c = ref 1.0 and p = ref 0.0 in
        let i = ref (!m - 1) in
        let broke = ref false in
        while (not !broke) && !i >= l do
          let f = !s *. e.(!i) in
          let b = !c *. e.(!i) in
          r := hypot_ f !g;
          e.(!i + 1) <- !r;
          if !r = 0.0 then begin
            d.(!i + 1) <- d.(!i + 1) -. !p;
            e.(!m) <- 0.0;
            broke := true
          end
          else begin
            s := f /. !r;
            c := !g /. !r;
            g := d.(!i + 1) -. !p;
            let r2 = ((d.(!i) -. !g) *. !s) +. (2.0 *. !c *. b) in
            p := !s *. r2;
            d.(!i + 1) <- !g +. !p;
            g := (!c *. r2) -. b;
            rotate !i !s !c 0.0;
            decr i
          end
        done;
        if not (!broke && !i >= l) then begin
          d.(l) <- d.(l) -. !p;
          e.(l) <- !g;
          e.(!m) <- 0.0
        end
      end
    done
  done

let sort_descending d z_opt n =
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> Float.compare d.(j) d.(i)) order;
  let sorted_d = Array.init n (fun i -> d.(order.(i))) in
  let sorted_z =
    match z_opt with
    | None -> None
    | Some z -> Some (Mat.init n n (fun i j -> Mat.get z i order.(j)))
  in
  (sorted_d, sorted_z)

let symmetric a =
  if not (Mat.is_square a) then invalid_arg "Eig.symmetric: not square";
  if not (Mat.is_symmetric ~tol:1e-6 a) then
    invalid_arg "Eig.symmetric: matrix is not symmetric";
  let n = Mat.rows a in
  Cost.parallel ~work:(9 * n * n * n) ~span:(n * 60);
  if n = 0 then { values = [||]; vectors = Mat.create 0 0 }
  else begin
    let z = Mat.symmetrize a in
    let d = Array.make n 0.0 and e = Array.make n 0.0 in
    if n = 1 then { values = [| Mat.get z 0 0 |]; vectors = Mat.identity 1 }
    else begin
      tridiagonalize ~vectors:true z n d e;
      ql_implicit d e ~z n;
      let values, vectors = sort_descending d (Some z) n in
      match vectors with
      | Some v -> { values; vectors = v }
      | None -> assert false
    end
  end

let tridiagonal_values d e =
  let n = Array.length d in
  if Array.length e <> n - 1 then
    invalid_arg "Eig.tridiagonal_values: need n-1 subdiagonal entries";
  if n = 0 then [||]
  else begin
    let d = Array.copy d in
    let e2 = Array.make n 0.0 in
    Array.blit e 0 e2 0 (n - 1);
    if n > 1 then ql_implicit d e2 n;
    let values, _ = sort_descending d None n in
    values
  end

(* The values of [symmetric a], bit for bit, without the eigenvectors:
   the reduction skips its accumulation pass and QL rotates nothing. *)
let sorted_values ~caller a =
  if not (Mat.is_square a) then invalid_arg (caller ^ ": not square");
  if not (Mat.is_symmetric ~tol:1e-6 a) then
    invalid_arg (caller ^ ": matrix is not symmetric");
  let n = Mat.rows a in
  if n = 0 then invalid_arg (caller ^ ": empty matrix");
  Cost.parallel ~work:(2 * n * n * n) ~span:(n * 60);
  let z = Mat.symmetrize a in
  if n = 1 then [| Mat.get z 0 0 |]
  else begin
    let d = Array.make n 0.0 and e = Array.make n 0.0 in
    tridiagonalize ~vectors:false z n d e;
    ql_implicit d e n;
    fst (sort_descending d None n)
  end

let lambda_max a = (sorted_values ~caller:"Eig.lambda_max" a).(0)

let lambda_min a =
  let vs = sorted_values ~caller:"Eig.lambda_min" a in
  vs.(Array.length vs - 1)

let apply_fun f { values; vectors } =
  let n = Array.length values in
  let scaled =
    Mat.init n n (fun i j -> Mat.get vectors i j *. f values.(j))
  in
  Mat.mul scaled (Mat.transpose vectors)

let reconstruct d = apply_fun (fun x -> x) d
