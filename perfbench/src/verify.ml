(* Independent answer checks, run after the timed window. They use only
   dense linear algebra (lib/linalg) and the instance data, never the
   solver's Certificate module: its Auto method switches to Lanczos
   above m = 160, which can under-report λmax.

   A check has two verdicts. [sound]: every bound the answer states is
   a true bound (feasible dual, valid covering witness, known optimum
   inside the bracket). [ok]: sound and the answer also keeps the
   accuracy the call promised (bracket within 1+ε, decision mass at
   least 1−ε). An answer that is sound but not ok is a quality miss,
   not a wrong answer; both lower [ok_ratio]. *)

open Psdp_linalg
open Psdp_core

(* The solver's own feasibility tolerance on λmax(Σ xᵢAᵢ). *)
let psd_tol = 1e-6

let rel_tol = 1e-9

type verdict = { sound : bool; ok : bool; gap : float; note : string }

let fail note = { sound = false; ok = false; gap = Float.nan; note }

let sum = Array.fold_left ( +. ) 0.0

(* Σᵢ scale·xᵢ·Aᵢ as a dense matrix, one constraint at a time. *)
let weighted_sum ?(scale = 1.0) inst x =
  let m = Instance.dim inst in
  let psi = Mat.create m m in
  Array.iteri
    (fun i f ->
      if x.(i) <> 0.0 then
        Mat.axpy psi ~alpha:(scale *. x.(i)) (Psdp_sparse.Factored.to_dense f))
    (Instance.factors inst);
  psi

(* A dual x passes if x >= 0, λmax(Σ xᵢ·scale·Aᵢ) <= 1 + tol and its
   ℓ₁ mass matches the reported value. *)
let dual_feasible ?scale inst x ~value =
  if Array.length x <> Instance.num_constraints inst then Error "dual length"
  else if not (Array.for_all (fun v -> v >= 0.0 && Float.is_finite v) x) then
    Error "dual has a negative or non-finite entry"
  else if
    Float.abs (sum x -. value) > rel_tol *. Float.max 1.0 (Float.abs value)
  then Error (Printf.sprintf "‖x‖₁ %.17g <> value %.17g" (sum x) value)
  else
    let lmax = Eig.lambda_max (weighted_sum ?scale inst x) in
    if lmax > 1.0 +. psd_tol then
      Error (Printf.sprintf "λmax(Σ xᵢAᵢ) = %.9g > 1" lmax)
    else Ok ()

(* Covering witness Z: Z ⪰ 0, Tr Z <= upper and Aᵢ•Z >= 1 on every
   constraint the witness covers (those with a finite primal dot). *)
let witness_ok inst ~upper ~dots z =
  let scale = Float.max 1.0 (Mat.max_abs z) in
  let lmin = Eig.lambda_min z in
  if lmin < -.psd_tol *. scale then Error "witness not PSD"
  else if Mat.trace z > upper *. (1.0 +. rel_tol) then
    Error "witness trace exceeds the upper bound"
  else
    let factors = Instance.factors inst in
    let bad = ref None in
    Array.iteri
      (fun i d ->
        if Float.is_finite d && !bad = None then
          let a = Psdp_sparse.Factored.to_dense factors.(i) in
          if Mat.dot a z < 1.0 -. psd_tol then
            bad := Some (Printf.sprintf "witness misses constraint %d" i))
      dots;
    match !bad with Some e -> Error e | None -> Ok ()

let check_solve ?opt inst ~eps (r : Solver.packing_result) =
  let value = r.value and upper = r.upper_bound in
  let gap = (upper /. value) -. 1.0 in
  let ( let* ) = Result.bind in
  let sound =
    let* () = dual_feasible inst r.x ~value in
    let* () =
      if value <= upper *. (1.0 +. rel_tol) then Ok ()
      else Error "value above upper bound"
    in
    let* () =
      match (r.primal_z, r.primal_dots) with
      | Some z, Some dots -> witness_ok inst ~upper ~dots z
      | _ -> Ok ()
    in
    match opt with
    | Some o when value > o *. (1.0 +. rel_tol) || upper < o *. (1.0 -. rel_tol) ->
        Error (Printf.sprintf "OPT %g outside [%g, %g]" o value upper)
    | _ -> Ok ()
  in
  match sound with
  | Error e -> { (fail e) with gap }
  | Ok () ->
      let within = upper <= (1.0 +. eps) *. value *. (1.0 +. rel_tol) in
      {
        sound = true;
        ok = within;
        gap;
        note =
          (if within then ""
           else Printf.sprintf "bracket ratio %.6f > 1+ε" (upper /. value));
      }

(* A decision answer passes only as a verified dual of the scaled
   instance with mass at least 1 − ε. *)
let check_decide inst ~threshold ~eps (r : Decision.result) =
  match r.outcome with
  | Decision.Primal _ -> fail "primal outcome on a dual-side threshold"
  | Decision.Dual { x; _ } -> (
      let mass = sum x in
      match dual_feasible ~scale:threshold inst x ~value:mass with
      | Error e -> fail e
      | Ok () ->
          let ok = mass >= 1.0 -. eps in
          {
            sound = true;
            ok;
            gap = 1.0 -. mass;
            note = (if ok then "" else Printf.sprintf "mass %.6f < 1-ε" mass);
          })
