(* EXP1 + EXP2: iteration-count scaling of decisionPSDP (Theorem 3.1).

   The theorem promises O(eps^-3 log^2 n) iterations, independent of the
   input width. We measure the Faithful solver's iterations at a fixed
   relative threshold (OPT/2) and report the empirical scaling exponents
   next to the theoretical caps. Faithful exits once the dual mass passes
   K, far below the worst-case cap R, but the *growth* in n and 1/eps is
   the claim under test. *)

open Psdp_prelude
open Psdp_instances

let exp1_iters_vs_n ~quick () =
  Bench_util.section "EXP1: iterations vs n (Theorem 3.1; eps = 0.3 fixed)";
  Printf.printf "%6s %12s %14s %12s\n" "n" "iterations" "paper cap R" "iters/log2(n)";
  let ns = if quick then [ 4; 8; 16; 32 ] else [ 4; 8; 16; 32; 64; 128 ] in
  let eps = 0.3 in
  let points =
    List.map
      (fun n ->
        let rng = Rng.create (1000 + n) in
        let inst = Random_psd.factored ~rng ~dim:16 ~n ~rank:4 () in
        let iters, r_cap = Bench_util.decision_iterations ~eps inst in
        let log2n = Util.log2 (float_of_int n) in
        Printf.printf "%6d %12d %14d %12.1f\n" n iters r_cap
          (float_of_int iters /. (log2n *. log2n));
        (float_of_int n, float_of_int iters))
      ns
  in
  let exponent =
    Bench_util.fit_exponent (List.map fst points) (List.map snd points)
  in
  Printf.printf
    "empirical exponent of iterations in n: %.2f  (theory: polylog, i.e. ~0 \
     as a power of n; the paper cap grows as log^2 n)\n"
    exponent;
  exponent

let exp2_iters_vs_eps ~quick () =
  Bench_util.section "EXP2: iterations vs 1/eps (Theorem 3.1; fixed instance)";
  Printf.printf "%8s %12s %14s %16s\n" "eps" "iterations" "paper cap R"
    "iters*eps^2";
  let epss = if quick then [ 0.5; 0.3; 0.2 ] else [ 0.5; 0.4; 0.3; 0.2; 0.15; 0.1 ] in
  let rng = Rng.create 77 in
  let inst = Random_psd.factored ~rng ~dim:14 ~n:10 ~rank:4 () in
  let points =
    List.map
      (fun eps ->
        let iters, r_cap = Bench_util.decision_iterations ~eps inst in
        Printf.printf "%8.2f %12d %14d %16.1f\n" eps iters r_cap
          (float_of_int iters *. eps *. eps);
        (1.0 /. eps, float_of_int iters))
      epss
  in
  let exponent =
    Bench_util.fit_exponent (List.map fst points) (List.map snd points)
  in
  Printf.printf
    "empirical exponent of iterations in 1/eps: %.2f  (paper cap: 3; \
     the Faithful dual exit needs ~log(K)/alpha = O(eps^-2 log) steps)\n"
    exponent;
  exponent
