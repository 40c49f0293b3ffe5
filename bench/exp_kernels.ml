(* EXP18: exp-kernel microbenches and the Taylor→Chebyshev matvec cut.

   (a) Blocked symmetric matvec: effective bandwidth of the tiled
       [Mat.symv] against the naive row-major [Mat.gemv] on the same
       symmetric matrix — the tiling reads each off-diagonal tile once
       for both its row and column contributions.
   (b) Panel matvec: [Csr.spmv_many] on a k-column panel against k
       single [Csr.spmv] calls — one pass over the nonzeros per degree
       step is the mechanism that lets all JL sketch columns ride one
       sweep in bigDotExp.
   (c) bigDotExp matvec counts: the certified Chebyshev default against
       the Lemma-4.2 Taylor prefix on an EXP4-style weighted-Gram
       operator at fixed κ — the degree gap is the whole story, so the
       matvec ratio is deterministic.
   (d) End-to-end: a fixed budget of sketched faithful decision
       iterations on an EXP5-style factored instance under both
       polynomials — total matvecs (from {!Psdp_expm.Kernel_stats}) and
       wall clock — plus a small full solve under each to confirm the
       certified gap does not move when the kernel gets faster.

   test_expm's "exp18 matvec cut, no fallbacks" case holds (c)'s ≥ 3×
   matvec ratio and (d)'s zero Taylor fallbacks at the quick settings. *)

open Psdp_prelude
open Psdp_linalg
open Psdp_sparse
open Psdp_expm
open Psdp_core
open Psdp_instances

let now = Unix.gettimeofday

let time_reps reps f =
  let t0 = now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  now () -. t0

let random_symmetric rng n =
  Mat.symmetrize (Mat.init n n (fun _ _ -> Rng.gaussian rng))

let bench_symv ~quick rng =
  let n = if quick then 384 else 1024 in
  let reps = if quick then 20 else 30 in
  let a = random_symmetric rng n in
  let x = Rng.gaussian_array rng n in
  ignore (Mat.symv a x);
  ignore (Mat.gemv a x);
  let t_gemv = time_reps reps (fun () -> Mat.gemv a x) in
  let t_symv = time_reps reps (fun () -> Mat.symv a x) in
  (* Effective bandwidth charges the full n² matrix read to both
     kernels, so the tiled variant's halved traffic shows up as a
     higher rate rather than a different denominator. *)
  let bytes = 8.0 *. float_of_int n *. float_of_int n *. float_of_int reps in
  let gbs t = bytes /. t /. 1e9 in
  Printf.printf "%-28s %8d %12.2f %12.2f %10.2fx\n%!" "symv vs gemv (GB/s)" n
    (gbs t_gemv) (gbs t_symv) (t_gemv /. t_symv)

let random_csr rng ~rows ~cols ~density =
  let entries = ref [ (0, 0, 1.0) ] in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Rng.uniform rng < density then
        entries := (i, j, Rng.gaussian rng) :: !entries
    done
  done;
  Csr.of_coo ~rows ~cols !entries

let bench_spmv_many ~quick rng =
  let n = if quick then 1024 else 2048 in
  let density = 8.0 /. float_of_int n in
  let k = 16 in
  let reps = if quick then 30 else 60 in
  let a = random_csr rng ~rows:n ~cols:n ~density in
  let vs = Array.init k (fun _ -> Rng.gaussian_array rng n) in
  ignore (Csr.spmv_many a vs);
  let t_single =
    time_reps reps (fun () -> Array.map (fun v -> Csr.spmv a v) vs)
  in
  let t_panel = time_reps reps (fun () -> Csr.spmv_many a vs) in
  let gnnz t =
    float_of_int (Csr.nnz a * k * reps) /. t /. 1e9
  in
  Printf.printf "%-28s %8d %12.3f %12.3f %10.2fx\n%!"
    (Printf.sprintf "spmv_many k=%d (Gnnz/s)" k)
    (Csr.nnz a) (gnnz t_single) (gnnz t_panel) (t_single /. t_panel)

let bench_bigdotexp_matvecs ~quick rng =
  let dim = if quick then 128 else 256 in
  let kappa = 16.0 in
  let eps = 0.1 in
  let factors =
    Array.init 8 (fun _ ->
        Factored.of_csr (random_csr rng ~rows:dim ~cols:4 ~density:0.3))
  in
  let gram = Weighted_gram.create factors in
  Weighted_gram.set_weights gram (Array.make 8 (0.125 /. float_of_int dim));
  let sketch = Psdp_sketch.Jl.create ~rng ~target_dim:16 ~source_dim:dim in
  let run poly =
    let r =
      Big_dot_exp.compute ~poly
        ~matvec:(Weighted_gram.apply gram)
        ~matvec_many:(Weighted_gram.apply_many gram)
        ~dim ~kappa ~eps ~sketch factors
    in
    (r.Big_dot_exp.matvecs, r.Big_dot_exp.degree)
  in
  let mv_t, d_t = run Big_dot_exp.Taylor in
  let mv_c, d_c = run Big_dot_exp.Chebyshev in
  Printf.printf
    "bigDotExp kappa=%.0f: taylor degree %d (%d matvecs), chebyshev degree \
     %d (%d matvecs) — %.2fx fewer\n"
    kappa d_t mv_t d_c mv_c
    (float_of_int mv_t /. float_of_int mv_c)

exception Enough

(* EXP5's operating point: a fixed budget of faithful decision
   iterations on a scaled instance, so the Taylor baseline's cost stays
   bench-sized (a full Taylor solve at these degrees runs for minutes). *)
let bench_solve_iterations ~quick rng =
  let dim = if quick then 32 else 64 in
  let budget = if quick then 60 else 120 in
  let inst = Random_psd.factored ~rng ~dim ~n:6 ~rank:4 ~density:0.15 () in
  let v =
    2.0
    *. Array.fold_left
         (fun acc f -> acc +. (1.0 /. Factored.lambda_max f))
         0.0 (Instance.factors inst)
  in
  let scaled = Instance.scale v inst in
  let eps = 0.3 in
  let backend = Decision.Sketched { seed = 5; sketch_dim = Some 24 } in
  let run poly =
    Kernel_stats.reset ();
    let t0 = now () in
    (match
       Big_dot_exp.with_poly poly (fun () ->
           Decision.solve ~mode:Decision.Faithful ~eps ~backend
             ~on_iter:(fun s -> if s.Decision.t >= budget then raise Enough)
             scaled)
     with
    | (_ : Decision.result) -> ()
    | exception Enough -> ());
    (now () -. t0, Kernel_stats.matvecs (), Kernel_stats.taylor_fallbacks ())
  in
  let t_taylor, mv_taylor, _ = run Big_dot_exp.Taylor in
  let t_cheb, mv_cheb, fallbacks = run Big_dot_exp.Chebyshev in
  Printf.printf
    "decision dim=%d (%d iters): taylor %.3fs (%d matvecs), chebyshev %.3fs \
     (%d matvecs, %d fallbacks) — %.2fx matvecs, %.2fx wall-clock\n%!"
    dim budget t_taylor mv_taylor t_cheb mv_cheb fallbacks
    (float_of_int mv_taylor /. float_of_int mv_cheb)
    (t_taylor /. t_cheb)

(* Certified accuracy must not move when the kernel gets faster: a
   small full solve under each polynomial, gap checked against eps. *)
let bench_solve_gap rng =
  let inst = Random_psd.factored ~rng ~dim:12 ~n:4 ~rank:3 () in
  let eps = 0.3 in
  let backend = Decision.Sketched { seed = 5; sketch_dim = None } in
  let gap poly =
    let r =
      Big_dot_exp.with_poly poly (fun () ->
          Solver.solve_packing ~eps ~backend inst)
    in
    (r.Solver.upper_bound /. r.Solver.value) -. 1.0
  in
  let gap_taylor = gap Big_dot_exp.Taylor in
  let gap_cheb = gap Big_dot_exp.Chebyshev in
  Printf.printf "full solve gaps at eps=%.1f: taylor %.4f, chebyshev %.4f\n%!"
    eps gap_taylor gap_cheb

let run ~quick () =
  Bench_util.section
    "EXP18: exp-kernel microbenches (blocked symv, panel spmv, \
     Taylor vs certified Chebyshev)";
  Printf.printf "%-28s %8s %12s %12s %10s\n" "kernel" "size" "baseline"
    "batched" "speedup";
  let rng = Rng.create 1806 in
  bench_symv ~quick rng;
  bench_spmv_many ~quick rng;
  bench_bigdotexp_matvecs ~quick rng;
  bench_solve_iterations ~quick rng;
  bench_solve_gap rng
