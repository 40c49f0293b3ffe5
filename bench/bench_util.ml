(* Shared helpers for the experiment harness. *)

open Psdp_prelude
open Psdp_core

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

let row fmt = Printf.printf fmt

(* Estimate an instance's packing optimum quickly (used to place decision
   thresholds at a comparable position across instances). A coarse eps is
   enough: the estimate is a certified lower bound on OPT, so a threshold
   placed at estimate/2 always lands on the feasible side with margin. *)
let estimate_opt ?backend inst =
  (Solver.solve_packing ?backend ~eps:0.4 inst).Solver.value

(* Faithful decision iterations at threshold OPT/2 — the "comfortably
   feasible" operating point used by the scaling experiments. Faithful
   runs the multiplicative-weights loop until ‖x‖₁ passes K, with no
   early exit (DESIGN §2). *)
let decision_iterations ?pool ?backend ~eps inst =
  let opt = estimate_opt ?backend inst in
  (* Scaling the matrices by opt/2 puts the rescaled optimum at 2: the
     dual side must genuinely accumulate unit mass. *)
  let scaled = Instance.scale (opt /. 2.0) inst in
  let r = Decision.solve ?pool ?backend ~mode:Decision.Faithful ~eps scaled in
  (r.Decision.iterations, r.Decision.params.Params.r_cap)

let fit_exponent xs ys =
  Stats.scaling_exponent (Array.of_list xs) (Array.of_list ys)

let mean_of repeats f =
  let s = Stats.create () in
  for _ = 1 to repeats do
    Stats.add s (f ())
  done;
  Stats.mean s
