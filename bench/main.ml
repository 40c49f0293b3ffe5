(* Benchmark harness: regenerates every experiment of DESIGN.md §4
   (EXP1–EXP15, EXP17, EXP18) and runs the bechamel kernel suite.
   Experiments print their tables and write nothing into the checkout;
   end-to-end performance numbers come from perfbench/.

   Usage:
     dune exec bench/main.exe              # full run, all experiments
     dune exec bench/main.exe -- quick     # smaller sweeps (CI-sized)
     dune exec bench/main.exe -- exp3 exp7 # selected experiments only
     dune exec bench/main.exe -- kernels   # bechamel microbenches only

   The printed tables are the source of EXPERIMENTS.md. *)

let all_names =
  [
    "exp1"; "exp2"; "exp3"; "exp4"; "exp5"; "exp6"; "exp7"; "exp8"; "exp9";
    "exp10"; "exp11"; "exp12"; "exp13"; "exp14"; "exp15"; "exp17"; "exp18";
    "kernels";
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "quick" args in
  let selected = List.filter (fun a -> List.mem a all_names) args in
  let want name = selected = [] || List.mem name selected in
  Printf.printf
    "psdp benchmark harness — width-independent positive SDP (SPAA'12)\n";
  Printf.printf "mode: %s\n" (if quick then "quick" else "full");
  if want "exp1" then ignore (Exp_scaling.exp1_iters_vs_n ~quick ());
  if want "exp2" then ignore (Exp_scaling.exp2_iters_vs_eps ~quick ());
  if want "exp3" then ignore (Exp_width.run ~quick ());
  if want "exp4" then begin
    Exp_bigdotexp.accuracy ~quick ();
    ignore (Exp_bigdotexp.work ~quick ())
  end;
  if want "exp5" then ignore (Exp_work.run ~quick ());
  if want "exp6" then ignore (Exp_parallel.run ~quick ());
  if want "exp7" then ignore (Exp_quality.run ~quick ());
  if want "exp8" then ignore (Exp_invariants.run ~quick ());
  if want "exp9" then begin
    Exp_ablation.phases_and_buckets ~quick ();
    Exp_ablation.sketch_dimension ~quick ();
    Exp_ablation.polynomial_choice ~quick ()
  end;
  if want "exp10" then ignore (Exp_engine.run ~quick ());
  if want "exp11" then ignore (Exp_checkpoint.run ~quick ());
  if want "exp12" then ignore (Exp_obs.run ~quick ());
  if want "exp13" then ignore (Exp_fault.run ~quick ());
  if want "exp14" then ignore (Exp_fuzz.run ~quick ());
  if want "exp15" then ignore (Exp_dist.run ~quick ());
  if want "exp17" then ignore (Exp_failover.run ~quick ());
  if want "exp18" then Exp_kernels.run ~quick ();
  if want "kernels" then Kernels.run ();
  Printf.printf "\nAll selected experiments completed.\n"
