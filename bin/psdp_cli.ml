(* Command-line interface: generate, inspect, decide and solve positive
   SDP instances stored in the text format of {!Psdp_instances.Loader},
   and run batches of jobs through the persistent engine.

     psdp gen --family beamforming --dim 16 --n 8 -o bf.inst
     psdp info bf.inst
     psdp solve bf.inst --eps 0.1 --backend sketched
     psdp decide bf.inst --threshold 0.5 --eps 0.2
     psdp batch jobs.manifest --trace trace.jsonl
     psdp serve --stdin
*)

open Cmdliner
open Psdp_prelude
open Psdp_core
open Psdp_instances
open Psdp_engine
module Metrics = Psdp_obs.Metrics
module Profiler = Psdp_obs.Profiler
module Trace_summary = Psdp_obs.Trace_summary
module Trace_assemble = Psdp_obs.Trace_assemble
module Slo = Psdp_obs.Slo
module Degrade = Psdp_fault.Degrade
module Serve = Psdp_serve.Serve

(* ------------------------------------------------------------------ *)
(* Exit codes (documented in every command's man page): batch drivers
   need to tell a negative mathematical answer from operator error. *)

let exit_infeasible = 1
let exit_bad_input = 2

let exit_unreachable = 3
(* distinct from 1/2 so batch drivers can retry connectivity failures
   (transient) without retrying bad manifests or failed jobs *)

let solver_exits =
  Cmd.Exit.info exit_infeasible
    ~doc:
      "the returned solution failed verification, or the $(b,decide) \
       threshold was rejected (a covering certificate bounds OPT below \
       it); for $(b,batch)/$(b,serve): some job failed, timed out, was \
       cancelled, or failed verification."
  :: Cmd.Exit.info exit_bad_input
       ~doc:
         "malformed input: an instance file or manifest failed to parse, \
          or an I/O error occurred while reading it."
  :: Cmd.Exit.info exit_unreachable
       ~doc:
         "no coordinator was reachable: every address in $(b,--connect) \
          was tried, with backoff, until the retry budget ran out \
          ($(b,psdp submit) only)."
  :: Cmd.Exit.defaults

let load_or_die file =
  match Loader.load_result file with
  | Ok inst -> inst
  | Error msg ->
      Printf.eprintf "psdp: %s\n" msg;
      exit exit_bad_input

(* ------------------------------------------------------------------ *)
(* Shared arguments *)

let eps_arg =
  let doc = "Accuracy parameter in (0,1)." in
  Arg.(value & opt float 0.1 & info [ "eps"; "e" ] ~docv:"EPS" ~doc)

let verbose_arg =
  let doc = "Log solver progress to stderr (-v: info, -vv: debug)." in
  Arg.(value & flag_all & info [ "v"; "verbose" ] ~doc)

let setup_logs verbosity =
  let level =
    match List.length verbosity with
    | 0 -> Some Logs.Warning
    | 1 -> Some Logs.Info
    | _ -> Some Logs.Debug
  in
  Logs.set_level level;
  Logs.set_reporter (Logs.format_reporter ())

let seed_arg =
  let doc = "PRNG seed (all generators are deterministic in the seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let backend_arg =
  let doc =
    "Exponential primitive: $(b,exact) (dense eigendecomposition) or \
     $(b,sketched) (Theorem 4.1: Taylor polynomial + JL sketch)."
  in
  let c = Arg.enum [ ("exact", `Exact); ("sketched", `Sketched) ] in
  Arg.(value & opt c `Exact & info [ "backend" ] ~docv:"BACKEND" ~doc)

let mode_arg =
  let doc =
    "$(b,adaptive) verifies certificates every few iterations and exits \
     early; $(b,faithful) runs the paper's pseudocode to its own exits."
  in
  let c = Arg.enum [ ("adaptive", `Adaptive); ("faithful", `Faithful) ] in
  Arg.(value & opt c `Adaptive & info [ "mode" ] ~docv:"MODE" ~doc)

let file_arg =
  let doc = "Instance file (format: see lib/instances/loader.mli)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let to_backend = function
  | `Exact -> Decision.Exact
  | `Sketched -> Decision.Sketched { seed = 17; sketch_dim = None }

let to_mode = function
  | `Adaptive -> Decision.Adaptive { check_every = 10 }
  | `Faithful -> Decision.Faithful

let poly_arg =
  let doc =
    "Polynomial for the sketched exponential: $(b,chebyshev) (certified \
     remainder bound, one-sided by construction; the default) or \
     $(b,taylor) (the Lemma-4.2 prefix — escape hatch, and what \
     Chebyshev falls back to when certification fails at extreme \u{03BA})."
  in
  let c =
    Arg.enum
      [
        ("taylor", Psdp_expm.Big_dot_exp.Taylor);
        ("chebyshev", Psdp_expm.Big_dot_exp.Chebyshev);
      ]
  in
  Arg.(
    value
    & opt c Psdp_expm.Big_dot_exp.Chebyshev
    & info [ "poly" ] ~docv:"POLY" ~doc)

(* ------------------------------------------------------------------ *)
(* Observability: --metrics writes a Prometheus snapshot; the registry
   and span profiler are shared by the engine and the solver layers. *)

let metrics_file_arg =
  let doc =
    "Write a Prometheus text-exposition (v0.0.4) snapshot of solver and \
     engine metrics to $(docv) at exit. The write is atomic (temp file + \
     rename), so a concurrent scraper never sees a torn snapshot."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let write_metrics path reg =
  (* Kernel counters live in process-wide atomics; mirror them into the
     registry so every snapshot carries the psdp_kernel_* series. *)
  Psdp_expm.Kernel_stats.publish reg;
  try Psdp_store.Atomic_io.write_atomic path (Metrics.render reg)
  with e ->
    Printf.eprintf "psdp: failed to write metrics snapshot %s: %s\n" path
      (Printexc.to_string e)

(* (path, registry, profiler-into-that-registry) when --metrics is on. *)
let make_obs metrics_path =
  Option.map
    (fun path ->
      let reg = Metrics.create () in
      (path, reg, Profiler.create ~registry:reg ()))
    metrics_path

(* ------------------------------------------------------------------ *)
(* gen *)

let family_arg =
  let doc =
    "Instance family: $(b,random) (factored PSD), $(b,diagonal) (≡ packing \
     LP), $(b,beamforming) (IPS10 §2.2), $(b,projectors) (known OPT = n), \
     $(b,cycle) (edge packing on C_dim), $(b,gnp) (edge packing on G(dim,p))."
  in
  let c =
    Arg.enum
      [
        ("random", `Random);
        ("diagonal", `Diagonal);
        ("beamforming", `Beamforming);
        ("projectors", `Projectors);
        ("cycle", `Cycle);
        ("gnp", `Gnp);
      ]
  in
  Arg.(value & opt c `Random & info [ "family" ] ~docv:"FAMILY" ~doc)

let dim_arg =
  Arg.(value & opt int 16 & info [ "dim"; "m" ] ~docv:"M" ~doc:"Matrix dimension.")

let n_arg =
  Arg.(value & opt int 8 & info [ "n" ] ~docv:"N" ~doc:"Number of constraints.")

let p_arg =
  Arg.(value & opt float 0.3 & info [ "p" ] ~docv:"P" ~doc:"G(n,p) edge probability.")

let out_arg =
  let doc = "Output file ('-' for stdout)." in
  Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"OUT" ~doc)

let gen_cmd =
  let run family dim n p seed out =
    let rng = Rng.create seed in
    let inst =
      match family with
      | `Random -> Random_psd.factored ~rng ~dim ~n ()
      | `Diagonal -> Diagonal.random ~rng ~dim ~n ()
      | `Beamforming -> Beamforming.instance ~rng ~antennas:dim ~users:n ()
      | `Projectors -> fst (Known_opt.orthogonal_projectors ~rng ~dim ~n)
      | `Cycle -> Graph_packing.edge_packing (Graph.cycle dim)
      | `Gnp -> Graph_packing.edge_packing (Graph.gnp ~rng ~vertices:dim ~p)
    in
    let text = Loader.to_string inst in
    if out = "-" then print_string text
    else begin
      Loader.save out inst;
      Printf.printf "wrote %s (m=%d, n=%d, nnz=%d)\n" out (Instance.dim inst)
        (Instance.num_constraints inst) (Instance.nnz inst)
    end
  in
  let term =
    Term.(const run $ family_arg $ dim_arg $ n_arg $ p_arg $ seed_arg $ out_arg)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a positive SDP instance.")
    term

(* ------------------------------------------------------------------ *)
(* info *)

let info_cmd =
  let run file eps =
    let inst = load_or_die file in
    Format.printf "%a@.@.%a@." Instance.pp inst Analysis.pp
      (Analysis.analyze ~eps inst)
  in
  Cmd.v
    (Cmd.info "info" ~exits:solver_exits
       ~doc:"Print statistics and diagnostics of an instance file.")
    Term.(const run $ file_arg $ eps_arg)

(* ------------------------------------------------------------------ *)
(* solve *)

let solve_cmd =
  let run file eps backend mode poly metrics_path verbosity =
    setup_logs verbosity;
    Psdp_expm.Big_dot_exp.set_default_poly poly;
    let inst = load_or_die file in
    let obs = make_obs metrics_path in
    let prof =
      match obs with
      | None -> Profiler.disabled
      | Some (_, _, p) -> Profiler.root p "solve"
    in
    let r =
      Solver.solve_packing ~prof ~eps ~backend:(to_backend backend)
        ~mode:(to_mode mode) inst
    in
    Profiler.exit prof;
    (match obs with
    | Some (path, reg, _) -> write_metrics path reg
    | None -> ());
    Printf.printf "value       : %.6f\n" r.Solver.value;
    Printf.printf "upper bound : %.6f\n" r.Solver.upper_bound;
    Printf.printf "gap         : %.4f%%\n"
      (100.0 *. ((r.Solver.upper_bound /. r.Solver.value) -. 1.0));
    Printf.printf "calls/iters : %d / %d\n" r.Solver.decision_calls
      r.Solver.total_iterations;
    let cert = Certificate.check_dual inst r.Solver.x in
    Printf.printf "verified    : lambda_max = %.6f (feasible: %b)\n"
      cert.Certificate.lambda_max cert.Certificate.feasible;
    Printf.printf "x           :";
    Array.iter (fun v -> Printf.printf " %.5g" v) r.Solver.x;
    print_newline ();
    if not cert.Certificate.feasible then exit exit_infeasible
  in
  Cmd.v
    (Cmd.info "solve" ~exits:solver_exits
       ~doc:"Run approxPSDP (Theorem 1.1) on an instance file.")
    Term.(
      const run $ file_arg $ eps_arg $ backend_arg $ mode_arg $ poly_arg
      $ metrics_file_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* cover *)

let cover_cmd =
  let run file eps mode verbosity =
    setup_logs verbosity;
    let inst = load_or_die file in
    let r = Solver.solve_covering ~eps ~mode:(to_mode mode) inst in
    Printf.printf "covering objective (Tr Z): %.6f\n" r.Solver.objective;
    Printf.printf "packing lower bound      : %.6f\n" r.Solver.lower_bound;
    let cert = Certificate.check_primal inst r.Solver.z in
    Printf.printf "verified min A_i.Z       : %.6f (>= 1: %b)\n"
      cert.Certificate.min_dot
      (cert.Certificate.min_dot >= 1.0 -. 1e-6);
    if cert.Certificate.min_dot < 1.0 -. 1e-6 then exit exit_infeasible
  in
  Cmd.v
    (Cmd.info "cover" ~exits:solver_exits
       ~doc:"Solve the covering side (min Tr Y s.t. A_i.Y >= 1).")
    Term.(const run $ file_arg $ eps_arg $ mode_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* decide *)

let threshold_arg =
  let doc = "Threshold $(docv): decide whether OPT exceeds it." in
  Arg.(value & opt float 1.0 & info [ "threshold"; "t" ] ~docv:"V" ~doc)

let decide_cmd =
  let run file eps backend mode v =
    let inst = load_or_die file in
    let scaled = Instance.scale v inst in
    let r =
      Decision.solve ~eps ~backend:(to_backend backend) ~mode:(to_mode mode)
        scaled
    in
    let rejected =
      match r.Decision.outcome with
      | Decision.Dual { x; _ } ->
          let value = Util.sum_array x in
          (* x feasible for {v·Aᵢ} ⇒ v·x feasible for {Aᵢ}. *)
          Printf.printf
            "DUAL: a packing of value %.4f exists at threshold %.4g\n\
             => OPT >= %.6g\n"
            value v (v *. value);
          false
      | Decision.Primal { dots; _ } ->
          let min_dot = Util.min_array dots in
          Printf.printf
            "PRIMAL: covering certificate with min A_i.Y = %.4f\n\
             => OPT <= %.6g\n"
            min_dot
            (v /. min_dot);
          true
    in
    Printf.printf "iterations: %d (cap R = %d)\n" r.Decision.iterations
      r.Decision.params.Params.r_cap;
    if rejected then exit exit_infeasible
  in
  Cmd.v
    (Cmd.info "decide" ~exits:solver_exits
       ~doc:
         "Run one epsilon-decision call (Algorithm 3.1) at a threshold. \
          Exits 0 when a packing exists at the threshold, 1 when the \
          threshold is rejected by a covering certificate.")
    Term.(const run $ file_arg $ eps_arg $ backend_arg $ mode_arg $ threshold_arg)

(* ------------------------------------------------------------------ *)
(* batch / serve: the persistent engine *)

let jobs_arg =
  let doc = "Maximum jobs in flight (runner domains over the shared pool)." in
  Arg.(value & opt int 2 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let retries_arg =
  let doc =
    "Re-run a job up to $(docv) extra times after a transient fault \
     (injected faults, I/O errors, checkpoint-store failures) with \
     decorrelated-jitter backoff between attempts. 0 disables retries. \
     Permanent faults (bad input) and crashes are never retried."
  in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)

let backoff_arg =
  let doc =
    "Base retry backoff in seconds. Actual delays use decorrelated \
     jitter: each delay is drawn from [base, 3*previous], capped at \
     40x the base."
  in
  Arg.(value & opt float 0.05 & info [ "backoff" ] ~docv:"SECONDS" ~doc)

let quarantine_after_arg =
  let doc =
    "Quarantine a job whose final failure happened on attempt $(docv) \
     or later: the job is journaled as poisonous (when a checkpoint \
     store is attached), listed in the batch summary, and never \
     re-run by $(b,psdp resume) until re-submitted explicitly."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "quarantine-after" ] ~docv:"N" ~doc)

let failpoint_arg =
  let doc =
    "Arm a fault-injection failpoint (repeatable): \
     $(i,NAME=ACTION[@TRIGGER]) with $(i,ACTION) one of $(b,fail), \
     $(b,crash), $(b,delay:SECONDS), $(b,corrupt) and $(i,TRIGGER) one \
     of $(b,always) (default), $(b,nth:N), $(b,prob:P[:SEED]). \
     Example: $(b,store.append=fail\\@prob:0.1:42). For chaos testing \
     only — injected faults are real faults."
  in
  Arg.(value & opt_all string [] & info [ "failpoint" ] ~docv:"SPEC" ~doc)

let retry_policy ~retries ~backoff =
  if retries <= 0 then Psdp_fault.Retry.no_retry
  else
    Psdp_fault.Retry.make ~base:backoff ~cap:(40.0 *. backoff)
      ~max_attempts:(retries + 1) ()

let arm_failpoints specs =
  List.iter
    (fun spec ->
      match Psdp_fault.Failpoint.arm_spec spec with
      | Ok () -> ()
      | Error msg ->
          Printf.eprintf "psdp: --failpoint %s\n" msg;
          exit exit_bad_input)
    specs

let domains_arg =
  let doc = "Size of the shared worker pool (default: pool default)." in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let trace_file_arg =
  let doc = "Write a JSONL telemetry trace of every engine event to $(docv)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let cache_file_arg =
  let doc =
    "Persist the result cache to $(docv) (append-only JSONL). A repeated \
     run against the same cache file answers repeated jobs without solver \
     work and warm-starts epsilon refinements."
  in
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"FILE" ~doc)

let checkpoint_dir_arg =
  let doc =
    "Attach a durable checkpoint store at $(docv): job submissions, \
     periodic solver-state snapshots and completions are journaled there \
     (crash-safe: atomic writes, checksummed records). After a crash, \
     $(b,psdp resume) $(docv) re-runs what was interrupted."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc)

let checkpoint_every_arg =
  let doc = "Snapshot solver state every $(docv) decision calls." in
  Arg.(value & opt int 1 & info [ "checkpoint-every" ] ~docv:"N" ~doc)

let open_store_or_die dir =
  match Psdp_store.Store.open_store dir with
  | Ok store -> store
  | Error msg ->
      Printf.eprintf "psdp: %s\n" msg;
      exit exit_bad_input

let with_engine_env ~role ~jobs ~domains ~trace_path ~cache_path ?metrics_path
    ?metrics_every ?store_dir f =
  Psdp_parallel.Pool.with_pool ?num_domains:domains (fun pool ->
      let cache = Cache.create ?persist:cache_path () in
      let trace_oc = Option.map open_out trace_path in
      let trace =
        match trace_oc with Some oc -> Trace.channel oc | None -> Trace.null
      in
      (* Tag every event with this process's role and pid so merged
         multi-process traces stay attributable. *)
      if Trace.enabled trace then Trace.set_role trace role;
      let store = Option.map open_store_or_die store_dir in
      let obs = make_obs metrics_path in
      (* [serve] keeps a fresh snapshot on disk while running: a sampler
         domain rewrites the file every [metrics_every] seconds. Each
         write is atomic, so scrapers never observe a torn file. *)
      let stop_sampler = Atomic.make false in
      let sampler =
        match (obs, metrics_every) with
        | Some (path, reg, _), Some period when period > 0.0 ->
            Some
              (Domain.spawn (fun () ->
                   let rec loop slept =
                     if not (Atomic.get stop_sampler) then
                       if slept >= period then begin
                         write_metrics path reg;
                         loop 0.0
                       end
                       else begin
                         Unix.sleepf 0.05;
                         loop (slept +. 0.05)
                       end
                   in
                   loop 0.0))
        | _ -> None
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop_sampler true;
          Option.iter Domain.join sampler;
          (match obs with
          | Some (path, reg, _) -> write_metrics path reg
          | None -> ());
          Option.iter Psdp_store.Store.close store;
          Cache.close cache;
          Option.iter close_out trace_oc)
        (fun () ->
          f ~pool ~cache ~trace ~store
            ~metrics:(Option.map (fun (_, r, _) -> r) obs)
            ~profiler:(Option.map (fun (_, _, p) -> p) obs)
            ~max_in_flight:jobs))

let result_ok (r : Job.result) =
  match r.Job.outcome with
  | Job.Solved s -> s.certified
  | Job.Decided _ -> true
  | Job.Failed _ | Job.Cancelled | Job.Timed_out -> false

let print_result oc r =
  output_string oc (Json.to_string (Job.result_to_json r));
  output_char oc '\n'

let batch_cmd =
  let manifest_arg =
    let doc =
      "Manifest file: one JSON job per line ('#' comments and blank lines \
       allowed). Fields: $(b,file) (required), $(b,op) (solve|decide), \
       $(b,id), $(b,eps), $(b,backend), $(b,mode), $(b,threshold), \
       $(b,priority), $(b,timeout). Relative $(b,file) paths resolve \
       against the manifest's directory."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"MANIFEST" ~doc)
  in
  let run manifest jobs domains trace_path cache_path poly metrics_path
      ckpt_dir ckpt_every retries backoff quarantine_after failpoints out
      verbosity =
    setup_logs verbosity;
    Psdp_expm.Big_dot_exp.set_default_poly poly;
    arm_failpoints failpoints;
    let text =
      try
        let ic = open_in manifest in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with Sys_error msg ->
        Printf.eprintf "psdp batch: %s\n" msg;
        exit exit_bad_input
    in
    match Job.parse_manifest ~dir:(Filename.dirname manifest) text with
    | Error msg ->
        Printf.eprintf "psdp batch: %s\n" msg;
        exit exit_bad_input
    | Ok specs ->
        let results, quarantined =
          with_engine_env ~role:"batch" ~jobs ~domains ~trace_path ~cache_path
            ?metrics_path ?store_dir:ckpt_dir
            (fun ~pool ~cache ~trace ~store ~metrics ~profiler ~max_in_flight ->
              Engine.with_engine ~pool ~max_in_flight ~cache ~trace ?store
                ?metrics ?profiler ~checkpoint_every:ckpt_every
                ~retry:(retry_policy ~retries ~backoff) ?quarantine_after
                (fun eng ->
                  let handles = List.map (Engine.submit eng) specs in
                  let results = List.map (Engine.await eng) handles in
                  (results, Engine.quarantined eng)))
        in
        (if out = "-" then List.iter (print_result stdout) results
         else begin
           let oc = open_out out in
           List.iter (print_result oc) results;
           close_out oc
         end);
        let count p = List.length (List.filter p results) in
        let bad = count (fun r -> not (result_ok r)) in
        let hits =
          count (fun r ->
              match r.Job.outcome with
              | Job.Solved { cache = Job.Hit; _ } -> true
              | _ -> false)
        and warm =
          count (fun r ->
              match r.Job.outcome with
              | Job.Solved { cache = Job.Warm; _ } -> true
              | _ -> false)
        in
        Printf.eprintf
          "batch: %d jobs, %d ok, %d not ok; cache: %d hits, %d warm starts\n"
          (List.length results)
          (List.length results - bad)
          bad hits warm;
        if quarantined <> [] then begin
          Printf.eprintf "batch: %d job(s) quarantined:\n"
            (List.length quarantined);
          List.iter
            (fun (q : Psdp_store.Store.quarantined) ->
              Printf.eprintf "  %s (after %d attempts): %s\n" q.Psdp_store.Store.job
                q.Psdp_store.Store.attempts q.Psdp_store.Store.reason)
            quarantined
        end;
        if bad > 0 then exit exit_infeasible
  in
  Cmd.v
    (Cmd.info "batch" ~exits:solver_exits
       ~doc:
         "Run a manifest of solve/decide jobs through the persistent \
          engine: one shared worker pool, priority scheduling, result \
          caching with warm starts, and an optional JSONL telemetry \
          trace. Emits one JSON result line per job, in manifest order.")
    Term.(
      const run $ manifest_arg $ jobs_arg $ domains_arg $ trace_file_arg
      $ cache_file_arg $ poly_arg $ metrics_file_arg $ checkpoint_dir_arg
      $ checkpoint_every_arg $ retries_arg $ backoff_arg
      $ quarantine_after_arg $ failpoint_arg $ out_arg $ verbose_arg)

(* Serve-tier policy arguments. *)

let queue_cap_arg =
  let doc =
    "Admission-control bound: at most $(docv) requests outstanding. \
     Further requests are shed immediately with a \
     $(b,\\\"status\\\":\\\"rejected\\\") response instead of queueing."
  in
  Arg.(value & opt int 64 & info [ "queue-cap" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Default per-request deadline in seconds (a tighter $(b,timeout) in \
     the request wins). A request that blows its deadline resolves as \
     $(b,\\\"status\\\":\\\"timeout\\\")."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let degrade_conv =
  let parse s =
    match Degrade.parse s with Ok d -> Ok d | Error m -> Error (`Msg m)
  in
  let print ppf d = Format.pp_print_string ppf (Degrade.to_string d) in
  Arg.conv ~docv:"SCHEDULE" (parse, print)

let degrade_arg =
  let doc =
    "Load-adaptive epsilon degradation ladder: \
     $(i,AT:FACTOR,...[\\@cap=C]), e.g. $(b,4:1.5,8:2\\@cap=0.5) — at 4 \
     outstanding requests coarsen epsilon 1.5x, at 8 coarsen 2x, never \
     past 0.5. Every degraded request is still solved and certified at \
     its actual served epsilon, which the response reports."
  in
  Arg.(value & opt degrade_conv Degrade.none & info [ "degrade" ] ~docv:"SCHEDULE" ~doc)

let slo_target_conv =
  let parse s =
    match Slo.parse_target s with Ok t -> Ok t | Error m -> Error (`Msg m)
  in
  let print ppf t = Format.pp_print_string ppf (Slo.target_to_string t) in
  Arg.conv ~docv:"OBJECTIVE@LATENCY" (parse, print)

let serve_cmd =
  let stdin_flag =
    let doc =
      "Serve line-delimited JSON jobs from standard input (same fields as \
       a $(b,batch) manifest; relative paths resolve against the working \
       directory). One JSON response line per request is written to \
       standard output as soon as it resolves — completion order, not \
       submission order."
    in
    Arg.(value & flag & info [ "stdin" ] ~doc)
  in
  let metrics_every_arg =
    let doc =
      "With $(b,--metrics), also rewrite the snapshot every $(docv) \
       seconds while serving (0 disables periodic writes; the final \
       snapshot at exit is always written)."
    in
    Arg.(
      value & opt float 10.0 & info [ "metrics-every" ] ~docv:"SECONDS" ~doc)
  in
  let slo_arg =
    let doc =
      "Track a latency SLO $(i,OBJECTIVE\\@LATENCY) (e.g. $(b,0.99\\@0.5): \
       99% of requests under 0.5s) over the served requests. With \
       $(b,--metrics), exports $(b,psdp_slo_*) series including \
       multi-window error-budget burn rates."
    in
    Arg.(
      value
      & opt (some slo_target_conv) None
      & info [ "slo" ] ~docv:"OBJECTIVE@LATENCY" ~doc)
  in
  let run use_stdin queue_cap deadline degrade slo_target jobs domains
      trace_path cache_path metrics_path metrics_every ckpt_dir ckpt_every
      retries backoff quarantine_after failpoints verbosity =
    setup_logs verbosity;
    arm_failpoints failpoints;
    if not use_stdin then begin
      Printf.eprintf "psdp serve: only --stdin transport is implemented\n";
      exit Cmd.Exit.cli_error
    end;
    let out_mutex = Mutex.create () in
    let any_bad = ref false in
    (* A shed is a policy outcome, not a solver failure: it never flips
       the exit code. Only engine results that fail [result_ok] do. *)
    let on_response (resp : Serve.response) =
      Mutex.lock out_mutex;
      output_string stdout (Json.to_string (Serve.response_to_json resp));
      output_char stdout '\n';
      flush stdout;
      (match resp.Serve.outcome with
      | Serve.Done r -> if not (result_ok r) then any_bad := true
      | Serve.Rejected _ -> ());
      Mutex.unlock out_mutex
    in
    with_engine_env ~role:"serve" ~jobs ~domains ~trace_path ~cache_path
      ?metrics_path ~metrics_every ?store_dir:ckpt_dir
      (fun ~pool ~cache ~trace ~store ~metrics ~profiler ~max_in_flight ->
        let slo =
          Option.map (fun t -> Slo.create ?registry:metrics t) slo_target
        in
        let serve =
          Serve.create ?metrics ?slo
            { Serve.queue_cap; default_deadline = deadline; degrade }
            ~make_engine:(fun ~on_complete ->
              Engine.create ~pool ~max_in_flight ~cache ~trace ?store
                ?metrics ?profiler ~checkpoint_every:ckpt_every
                ~retry:(retry_policy ~retries ~backoff) ?quarantine_after
                ~on_complete ())
            ~on_response ()
        in
        Fun.protect
          ~finally:(fun () -> Serve.shutdown serve)
          (fun () ->
            let lineno = ref 0 in
            try
              while true do
                let line = String.trim (input_line stdin) in
                incr lineno;
                if line <> "" && line.[0] <> '#' then
                  match
                    Result.bind (Json.parse line) Job.spec_of_json
                  with
                  | Ok spec ->
                      let spec : Job.spec =
                        if spec.Job.id = "" then
                          { spec with Job.id = Printf.sprintf "req-%d" !lineno }
                        else spec
                      in
                      Serve.submit serve spec
                  | Error msg ->
                      on_response
                        {
                          Serve.id = Printf.sprintf "req-%d" !lineno;
                          requested_eps = 0.0;
                          served_eps = 0.0;
                          degrade_level = 0;
                          outcome =
                            Serve.Done
                              {
                                Job.id = Printf.sprintf "req-%d" !lineno;
                                outcome = Job.Failed msg;
                                elapsed = 0.0;
                              };
                          latency = 0.0;
                        }
              done
            with End_of_file -> ()));
    if !any_bad then exit exit_infeasible
  in
  Cmd.v
    (Cmd.info "serve" ~exits:solver_exits
       ~doc:
         "Serve solve/decide jobs from standard input through the \
          persistent engine, streaming results as they complete.")
    Term.(
      const run $ stdin_flag $ queue_cap_arg $ deadline_arg $ degrade_arg
      $ slo_arg $ jobs_arg $ domains_arg $ trace_file_arg $ cache_file_arg
      $ metrics_file_arg $ metrics_every_arg $ checkpoint_dir_arg
      $ checkpoint_every_arg $ retries_arg $ backoff_arg
      $ quarantine_after_arg $ failpoint_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* resume: crash recovery from a checkpoint store *)

let resume_cmd =
  let store_dir_arg =
    let doc =
      "Checkpoint store directory written by a previous \
       $(b,--checkpoint-dir) run."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"STORE_DIR" ~doc)
  in
  let run store_dir jobs domains trace_path cache_path metrics_path ckpt_every
      retries backoff quarantine_after failpoints out verbosity =
    setup_logs verbosity;
    arm_failpoints failpoints;
    if not (Sys.file_exists (Filename.concat store_dir "journal.jsonl")) then begin
      Printf.eprintf "psdp resume: no journal in %s\n" store_dir;
      exit exit_bad_input
    end;
    let results =
      with_engine_env ~role:"resume" ~jobs ~domains ~trace_path ~cache_path
        ?metrics_path ~store_dir
        (fun ~pool ~cache ~trace ~store ~metrics ~profiler ~max_in_flight ->
          Engine.with_engine ~pool ~max_in_flight ~cache ~trace ?store
            ?metrics ?profiler ~checkpoint_every:ckpt_every
            ~retry:(retry_policy ~retries ~backoff) ?quarantine_after
            (fun eng ->
              let handles = Engine.recover eng in
              List.map (fun h -> Engine.await eng h) handles))
    in
    if results = [] then Printf.eprintf "resume: nothing to resume\n"
    else begin
      (if out = "-" then List.iter (print_result stdout) results
       else begin
         let oc = open_out out in
         List.iter (print_result oc) results;
         close_out oc
       end);
      let bad = List.length (List.filter (fun r -> not (result_ok r)) results) in
      Printf.eprintf "resume: %d jobs recovered, %d ok, %d not ok\n"
        (List.length results)
        (List.length results - bad)
        bad;
      if bad > 0 then exit exit_infeasible
    end
  in
  Cmd.v
    (Cmd.info "resume" ~exits:solver_exits
       ~doc:
         "Recover a crashed or cancelled $(b,batch)/$(b,serve) run from \
          its checkpoint store: every job that was submitted but never \
          completed is re-run, continuing from its latest valid snapshot \
          (corrupt or mismatched snapshots are discarded and the job \
          restarts from scratch). Exits 0 when everything recovered \
          cleanly or there was nothing to do, 1 when a recovered job \
          failed, 2 when $(i,STORE_DIR) has no journal.")
    Term.(
      const run $ store_dir_arg $ jobs_arg $ domains_arg $ trace_file_arg
      $ cache_file_arg $ metrics_file_arg $ checkpoint_every_arg
      $ retries_arg $ backoff_arg $ quarantine_after_arg $ failpoint_arg
      $ out_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* trace: analytics over JSONL telemetry files *)

let trace_group_cmd =
  let summarize_cmd =
    let trace_pos =
      let doc =
        "JSONL trace file written by $(b,psdp batch --trace) or \
         $(b,psdp serve --trace)."
      in
      Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)
    in
    let run file =
      match Trace_summary.load file with
      | Error msg ->
          Printf.eprintf "psdp trace summarize: %s\n" msg;
          exit exit_bad_input
      | Ok s -> Format.printf "%a@?" Trace_summary.pp s
    in
    Cmd.v
      (Cmd.info "summarize" ~exits:solver_exits
         ~doc:
           "Summarize a telemetry trace: per-job status, queue wait and \
            run time (from each job's $(b,queue_wait) and $(b,exec) \
            spans), per-phase latency quantiles (p50/p90/p99), a \
            work-attribution table over the solver span paths under \
            $(b,exec), cache hit/warm/parent/miss counts, serve request \
            counts, and fault-layer event counts (retries, quarantines, \
            store faults, breaker trips, runner restarts, sketch \
            resamples).")
      Term.(const run $ trace_pos)
  in
  let critical_path_cmd =
    let files_arg =
      let doc =
        "Per-process JSONL trace files to merge (e.g. the coordinator's, \
         each worker's and the client's $(b,--trace) outputs)."
      in
      Arg.(non_empty & pos_all file [] & info [] ~docv:"TRACE" ~doc)
    in
    let run files =
      match Trace_assemble.load_files files with
      | Error msg ->
          Printf.eprintf "psdp trace critical-path: %s\n" msg;
          exit exit_bad_input
      | Ok t ->
          Printf.printf "assembled %d trace(s) from %d span(s) in %d file(s)"
            (List.length t.Trace_assemble.trees)
            t.Trace_assemble.spans (List.length files);
          if t.Trace_assemble.skipped > 0 then
            Printf.printf " (%d non-span/torn line(s) skipped)"
              t.Trace_assemble.skipped;
          print_newline ();
          if t.Trace_assemble.trees = [] then
            print_endline "warning: no span events found"
          else
            List.iter
              (fun (tree : Trace_assemble.tree) ->
                Format.printf "@.== trace %s%s ==@." tree.Trace_assemble.trace_id
                  (match tree.Trace_assemble.t_job with
                  | Some j -> Printf.sprintf " (job %s)" j
                  | None -> "");
                Format.printf "%a" Trace_assemble.pp_tree tree;
                Format.printf "processes: %d (%s)@."
                  (List.length tree.Trace_assemble.procs)
                  (String.concat ", "
                     (List.map
                        (fun (r, p) -> Printf.sprintf "%s/%d" r p)
                        tree.Trace_assemble.procs));
                (if tree.Trace_assemble.orphans > 0 then
                   Format.printf
                     "orphans: %d span(s) whose parent is outside the merged \
                      streams@."
                     tree.Trace_assemble.orphans);
                Format.printf "critical path (full durations):@.%a"
                  Trace_assemble.pp_segments
                  (Trace_assemble.critical_path tree);
                Format.printf "attribution (exclusive time):@.%a"
                  Trace_assemble.pp_segments
                  (Trace_assemble.attribution tree);
                let total = Trace_assemble.total tree in
                let attr = Trace_assemble.attributed tree in
                Format.printf "coverage: %.1f%% of %.6fs attributed@."
                  (if total > 0.0 then 100.0 *. attr /. total else 100.0)
                  total)
              t.Trace_assemble.trees
    in
    Cmd.v
      (Cmd.info "critical-path" ~exits:solver_exits
         ~doc:
           "Merge per-process trace files into one span tree per trace id \
            (ordered by parent links, never by cross-host timestamps) and \
            report each job's wall-clock critical path and per-segment \
            attribution: queue wait, assignment, reroute gaps, solve \
            phases, certification.")
      Term.(const run $ files_arg)
  in
  Cmd.group
    (Cmd.info "trace" ~doc:"Analytics over JSONL telemetry traces.")
    [ summarize_cmd; critical_path_cmd ]

(* ------------------------------------------------------------------ *)
(* slo: offline SLO compliance and burn-rate report *)

let slo_group_cmd =
  let report_cmd =
    let files_arg =
      let doc = "JSONL trace files written with $(b,--trace)." in
      Arg.(non_empty & pos_all file [] & info [] ~docv:"TRACE" ~doc)
    in
    let target_arg =
      let doc =
        "SLO target $(i,OBJECTIVE\\@LATENCY): $(b,0.99\\@0.5) means 99% of \
         requests under 0.5 seconds."
      in
      Arg.(
        value
        & opt slo_target_conv { Slo.objective = 0.99; latency = 1.0 }
        & info [ "slo" ] ~docv:"OBJECTIVE@LATENCY" ~doc)
    in
    let json_flag =
      let doc = "Emit the report as one JSON object instead of a table." in
      Arg.(value & flag & info [ "json" ] ~doc)
    in
    let run files target json =
      (* Torn tails and alien lines are skipped, as in [trace]. *)
      let events =
        match Trace_assemble.read_files files with
        | Ok (events, _) -> events
        | Error msg ->
            Printf.eprintf "psdp slo report: %s\n" msg;
            exit exit_bad_input
      in
      let report = Slo.report_of_events target events in
      if json then
        print_endline (Json.to_string (Slo.report_to_json report))
      else Format.printf "%a@?" Slo.pp_report report
    in
    Cmd.v
      (Cmd.info "report" ~exits:solver_exits
         ~doc:
           "Compute offline SLO compliance from trace files: request \
            counts, latency quantiles, compliance against the declared \
            target, trailing-window burn rates and total error-budget \
            consumption. Latencies are the durations of $(b,request) spans \
            (serve admission to response, or client submission to \
            result) when present, else of the engine's $(b,exec) spans.")
      Term.(const run $ files_arg $ target_arg $ json_flag)
  in
  Cmd.group
    (Cmd.info "slo" ~doc:"Latency-objective compliance and burn rates.")
    [ report_cmd ]

(* ------------------------------------------------------------------ *)
(* fuzz — property-based conformance campaigns (lib/qa) *)

let budget_conv =
  let parse s =
    let num str =
      match float_of_string_opt str with
      | Some v when v >= 0.0 && Float.is_finite v -> Ok v
      | _ -> Error (`Msg (Printf.sprintf "bad budget %S (try 300s or 5m)" s))
    in
    let n = String.length s in
    if n = 0 then Error (`Msg "empty budget")
    else
      match s.[n - 1] with
      | 's' -> num (String.sub s 0 (n - 1))
      | 'm' -> Result.map (fun v -> 60.0 *. v) (num (String.sub s 0 (n - 1)))
      | _ -> num s
  in
  let print ppf v = Format.fprintf ppf "%gs" v in
  Arg.conv (parse, print)

let fuzz_cmd =
  let budget_arg =
    let doc =
      "Wall-clock budget for the campaign: $(i,SECONDS), $(i,N)s or \
       $(i,N)m. 0 disables the time box (only $(b,--max-cases) bounds \
       the run)."
    in
    Arg.(value & opt budget_conv 10.0 & info [ "budget" ] ~docv:"DURATION" ~doc)
  in
  let max_cases_arg =
    let doc = "Stop after sampling this many instance specs." in
    Arg.(value & opt int 200 & info [ "max-cases" ] ~docv:"N" ~doc)
  in
  let corpus_arg =
    let doc =
      "JSONL failure corpus: previously distilled failures are replayed \
       as regressions at campaign start, and fresh failures are appended \
       (shrunk, deduplicated by content id)."
    in
    Arg.(
      value
      & opt string "psdp-fuzz-corpus.jsonl"
      & info [ "corpus" ] ~docv:"FILE" ~doc)
  in
  let props_arg =
    let doc =
      "Comma-separated property names to run (default: all; see \
       $(b,--list-props))."
    in
    Arg.(value & opt (list string) [] & info [ "props" ] ~docv:"NAMES" ~doc)
  in
  let list_props_arg =
    let doc = "List the registered conformance properties and exit." in
    Arg.(value & flag & info [ "list-props" ] ~doc)
  in
  let replay_arg =
    let doc =
      "Replay one corpus entry by id (or unique id prefix) under its \
       recorded failpoints instead of running a campaign. Exits 1 when \
       the failure reproduces, 0 when it no longer does."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"ID" ~doc)
  in
  let fuzz_seed_arg =
    let doc =
      "Campaign seed (drives spec sampling; every failure is replayable \
       independently of it). Also read from $(b,SEED), which is how the \
       printed replay one-liners pass it along."
    in
    Arg.(
      value
      & opt int 1
      & info [ "seed" ] ~docv:"SEED" ~env:(Cmd.Env.info "SEED") ~doc)
  in
  let run budget max_cases corpus props list_props replay seed failpoints
      metrics_path verbosity =
    setup_logs verbosity;
    if list_props then begin
      List.iter
        (fun (p : Psdp_qa.Property.t) ->
          Printf.printf "%-26s %s\n" p.Psdp_qa.Property.name
            p.Psdp_qa.Property.doc)
        Psdp_qa.Property.all;
      exit 0
    end;
    let obs = make_obs metrics_path in
    let registry = Option.map (fun (_, reg, _) -> reg) obs in
    let finish code =
      (match obs with
      | None -> ()
      | Some (path, reg, _) -> write_metrics path reg);
      exit code
    in
    match replay with
    | Some id -> (
        match Psdp_qa.Fuzz.replay ?registry ~corpus ~id () with
        | Error msg ->
            Printf.eprintf "psdp fuzz: %s\n" msg;
            finish exit_bad_input
        | Ok (Psdp_qa.Fuzz.Reproduced msg, entry) ->
            Printf.printf "reproduced %s: %s on %s\n  %s\n"
              entry.Psdp_qa.Corpus.id entry.Psdp_qa.Corpus.prop
              (Psdp_qa.Spec.to_string entry.Psdp_qa.Corpus.spec)
              msg;
            finish exit_infeasible
        | Ok (Psdp_qa.Fuzz.Not_reproduced, entry) ->
            Printf.printf "not reproduced: %s (%s) now passes\n"
              entry.Psdp_qa.Corpus.id entry.Psdp_qa.Corpus.prop;
            finish 0)
    | None -> (
        match Psdp_qa.Property.select props with
        | Error msg ->
            Printf.eprintf "psdp fuzz: %s\n" msg;
            finish exit_bad_input
        | Ok props -> (
            let config =
              {
                Psdp_qa.Fuzz.default with
                Psdp_qa.Fuzz.seed;
                budget;
                max_cases;
                props;
                corpus_path = Some corpus;
                failpoint_specs = failpoints;
                registry;
                log = prerr_endline;
              }
            in
            match Psdp_qa.Fuzz.run config with
            | Error msg ->
                Printf.eprintf "psdp fuzz: %s\n" msg;
                finish exit_bad_input
            | Ok o ->
                let failed =
                  List.length o.Psdp_qa.Fuzz.failures
                  + List.length o.Psdp_qa.Fuzz.regressions
                in
                Printf.printf
                  "fuzz: %d cases, %d checks in %.1fs; %d new failures, %d \
                   regressions\n"
                  o.Psdp_qa.Fuzz.cases o.Psdp_qa.Fuzz.checks
                  o.Psdp_qa.Fuzz.elapsed
                  (List.length o.Psdp_qa.Fuzz.failures)
                  (List.length o.Psdp_qa.Fuzz.regressions);
                finish (if failed > 0 then exit_infeasible else 0)))
  in
  Cmd.v
    (Cmd.info "fuzz" ~exits:solver_exits
       ~doc:
         "Run a property-based conformance campaign (differential oracles \
          + metamorphic invariants) with deterministic shrinking and a \
          replayable failure corpus."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Samples instance specs from the campaign seed and checks \
              every applicable conformance property: solver backends must \
              produce intersecting certified brackets, diagonal SDPs must \
              agree with the scalar LP solver, families with closed-form \
              optima must bracket them, and the optimum must be invariant \
              under constraint scaling, permutation and orthogonal \
              congruence. Failures are shrunk to minimal specs and \
              appended to the JSONL corpus together with a $(b,SEED=... \
              psdp fuzz --replay ID) one-liner that reproduces them \
              byte-for-byte.";
           `P
             "With $(b,--failpoint), the named fault-injection points are \
              re-armed before every check, so chaos campaigns are as \
              replayable as clean ones.";
         ])
    Term.(
      const run $ budget_arg $ max_cases_arg $ corpus_arg $ props_arg
      $ list_props_arg $ replay_arg $ fuzz_seed_arg $ failpoint_arg
      $ metrics_file_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* Distributed service: coordinator / worker / submit (lib/dist) *)

module Dist = Psdp_dist

let addr_conv =
  let parse s =
    match Dist.Transport.addr_of_string s with
    | Ok a -> Ok a
    | Error m -> Error (`Msg m)
  in
  let print ppf a =
    Format.pp_print_string ppf (Dist.Transport.addr_to_string a)
  in
  Arg.conv (parse, print)

(* Comma-separated ordered address list: "unix:/a.sock,host:9000". The
   first entry is the preferred (primary) coordinator; the rest are
   standbys tried in order when it is unreachable. *)
let addrs_conv =
  let parse s =
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: tl -> (
          match Dist.Transport.addr_of_string (String.trim p) with
          | Ok a -> go (a :: acc) tl
          | Error m -> Error (`Msg m))
    in
    match go [] (List.filter (fun p -> String.trim p <> "") parts) with
    | Ok [] -> Error (`Msg "empty address list")
    | r -> r
  in
  let print ppf addrs =
    Format.pp_print_string ppf
      (String.concat "," (List.map Dist.Transport.addr_to_string addrs))
  in
  Arg.conv (parse, print)

let connect_arg =
  let doc =
    "Coordinator address(es), comma-separated in preference order: \
     $(b,unix:)$(i,PATH) or $(i,HOST):$(i,PORT) (a bare port means \
     127.0.0.1). List the primary first and its standbys after; the \
     client fails over down the list."
  in
  Arg.(
    required
    & opt (some addrs_conv) None
    & info [ "connect" ] ~docv:"ADDRS" ~doc)

let coordinator_cmd =
  let listen_arg =
    let doc =
      "Address to listen on: $(b,unix:)$(i,PATH) or $(i,HOST):$(i,PORT)."
    in
    Arg.(
      required
      & opt (some addr_conv) None
      & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  let heartbeat_arg =
    let doc = "Seconds between worker heartbeats." in
    Arg.(value & opt float 1.0 & info [ "heartbeat" ] ~docv:"SECONDS" ~doc)
  in
  let grace_arg =
    let doc =
      "Declare a worker dead after $(docv) seconds of silence and reroute \
       its jobs (must exceed $(b,--heartbeat))."
    in
    Arg.(value & opt float 5.0 & info [ "grace" ] ~docv:"SECONDS" ~doc)
  in
  let standby_flag =
    let doc =
      "Run as a warm standby instead of serving: bind $(b,--listen), tail \
       the primary's WAL (from $(b,--peers)) into a byte-identical \
       replica under $(b,--checkpoint-dir), and take over — replaying \
       the replica and bumping the fencing epoch — when the primary \
       dies or an operator sends $(b,--takeover)."
    in
    Arg.(value & flag & info [ "standby" ] ~doc)
  in
  let peers_arg =
    let doc =
      "Primary address(es) a $(b,--standby) tails, comma-separated in \
       preference order."
    in
    Arg.(
      value & opt (some addrs_conv) None & info [ "peers" ] ~docv:"ADDRS" ~doc)
  in
  let takeover_flag =
    let doc =
      "Operator order: connect to the standby at $(b,--listen), tell it \
       to promote itself, print the new reign's epoch, and exit. (A \
       running primary answers idempotently with its current epoch.)"
    in
    Arg.(value & flag & info [ "takeover" ] ~doc)
  in
  let name_arg =
    let doc = "Coordinator name announced in $(b,Welcome) frames." in
    Arg.(value & opt (some string) None & info [ "name" ] ~docv:"NAME" ~doc)
  in
  let run listen heartbeat grace standby peers takeover name ckpt_dir
      trace_path metrics_path verbosity =
    setup_logs verbosity;
    if grace <= heartbeat then begin
      Printf.eprintf "psdp coordinator: --grace must exceed --heartbeat\n";
      exit exit_bad_input
    end;
    if takeover then begin
      (* Operator mode: no serving at all, just one frame each way. *)
      match Dist.Transport.connect listen with
      | Error msg ->
          Printf.eprintf "psdp coordinator: takeover: %s\n" msg;
          exit exit_unreachable
      | Ok conn -> (
          match
            Dist.Transport.send conn Dist.Proto.Takeover;
            Dist.Transport.recv conn
          with
          | Dist.Proto.Welcome { coordinator; epoch; _ } ->
              Printf.printf "promoted: %s now serves epoch %d\n" coordinator
                epoch;
              Dist.Transport.close conn
          | other ->
              Printf.eprintf "psdp coordinator: takeover: unexpected %s\n"
                (Dist.Proto.describe other);
              Dist.Transport.close conn;
              exit exit_bad_input
          | exception e ->
              Printf.eprintf "psdp coordinator: takeover: %s\n"
                (Printexc.to_string e);
              exit exit_unreachable)
    end
    else begin
      let trace_oc = Option.map open_out trace_path in
      let trace =
        match trace_oc with Some oc -> Trace.channel oc | None -> Trace.null
      in
      if Trace.enabled trace then Trace.set_role trace "coordinator";
      let obs = make_obs metrics_path in
      let config =
        {
          Dist.Coordinator.default_config with
          Dist.Coordinator.heartbeat_every = heartbeat;
          heartbeat_grace = grace;
        }
      in
      let config =
        match name with
        | Some n -> { config with Dist.Coordinator.name = n }
        | None -> config
      in
      let metrics = Option.map (fun (_, reg, _) -> reg) obs in
      let finally store () =
        (match obs with
        | Some (path, reg, _) -> write_metrics path reg
        | None -> ());
        Option.iter Psdp_store.Store.close store;
        Option.iter close_out trace_oc
      in
      let outcome =
        if standby then begin
          match (peers, ckpt_dir) with
          | None, _ | Some [], _ ->
              Printf.eprintf "psdp coordinator: --standby needs --peers\n";
              exit exit_bad_input
          | _, None ->
              Printf.eprintf
                "psdp coordinator: --standby needs --checkpoint-dir (the \
                 replica journal lives there)\n";
              exit exit_bad_input
          | Some primaries, Some dir ->
              let sname =
                match name with
                | Some n -> n
                | None -> Printf.sprintf "standby-%d" (Unix.getpid ())
              in
              Fun.protect ~finally:(finally None) (fun () ->
                  Dist.Replicate.standby ~config ?metrics ~trace ~name:sname
                    ~listen ~primaries ~dir ())
        end
        else begin
          let store = Option.map open_store_or_die ckpt_dir in
          Fun.protect ~finally:(finally store) (fun () ->
              Dist.Coordinator.run ~config ?store ?metrics ~trace ~listen ())
        end
      in
      match outcome with
      | Ok () -> ()
      | Error msg ->
          Printf.eprintf "psdp coordinator: %s\n" msg;
          exit exit_bad_input
    end
  in
  Cmd.v
    (Cmd.info "coordinator" ~exits:solver_exits
       ~doc:
         "Run the distributed coordinator: accept jobs from $(b,psdp \
          submit) clients, shard them across registered $(b,psdp worker) \
          processes by instance digest (rendezvous hashing), and reroute \
          the jobs of a worker that dies or misses heartbeats. With \
          $(b,--checkpoint-dir), every submission, assignment and \
          completion (result included) is journaled to the store's WAL; \
          unfinished jobs are re-queued on restart and finished ones are \
          answered idempotently from the journal. With $(b,--standby) the \
          process tails a primary's WAL and takes over on its death (or \
          on $(b,--takeover)) under a bumped fencing epoch, which locks a \
          resurrected old primary out. Serves until a client sends a \
          shutdown ($(b,psdp submit --shutdown)).")
    Term.(
      const run $ listen_arg $ heartbeat_arg $ grace_arg $ standby_flag
      $ peers_arg $ takeover_flag $ name_arg $ checkpoint_dir_arg
      $ trace_file_arg $ metrics_file_arg $ verbose_arg)

let worker_cmd =
  let name_arg =
    let doc =
      "Worker name announced to the coordinator (must be unique per \
       cluster; default $(b,worker-)$(i,PID))."
    in
    Arg.(value & opt (some string) None & info [ "name" ] ~docv:"NAME" ~doc)
  in
  let capacity_arg =
    let doc =
      "Assignment capacity advertised to the coordinator (default: the \
       $(b,--jobs) in-flight limit)."
    in
    Arg.(value & opt (some int) None & info [ "capacity" ] ~docv:"N" ~doc)
  in
  let run connect name capacity jobs domains trace_path cache_path
      metrics_path ckpt_dir ckpt_every retries backoff quarantine_after
      failpoints verbosity =
    setup_logs verbosity;
    arm_failpoints failpoints;
    let name =
      match name with
      | Some n -> n
      | None -> Printf.sprintf "worker-%d" (Unix.getpid ())
    in
    let outcome =
      with_engine_env ~role:"worker" ~jobs ~domains ~trace_path ~cache_path
        ?metrics_path ?store_dir:ckpt_dir
        (fun ~pool ~cache ~trace ~store ~metrics ~profiler ~max_in_flight ->
          let make_engine ~on_complete =
            Engine.create ~pool ~max_in_flight ~cache ~trace ?store ?metrics
              ?profiler ~checkpoint_every:ckpt_every
              ~retry:(retry_policy ~retries ~backoff) ?quarantine_after
              ~on_complete ()
          in
          Dist.Worker.run ?metrics ~trace ~connect ~name
            ~capacity:(Option.value capacity ~default:max_in_flight)
            ~make_engine ())
    in
    match outcome with
    | Ok () -> ()
    | Error msg ->
        Printf.eprintf "psdp worker: %s\n" msg;
        exit exit_bad_input
  in
  Cmd.v
    (Cmd.info "worker" ~exits:solver_exits
       ~doc:
         "Run one distributed worker: connect to a coordinator, receive \
          sharded jobs, solve them on the full local supervised engine \
          (retries, backoff, quarantine, circuit breaker, checkpoints — \
          identical to $(b,psdp batch)) and stream results back. When \
          the link drops (crash, failover) the worker keeps its engine \
          alive, cycles the $(b,--connect) list with jittered backoff, \
          re-registers with whoever answers, and replays undelivered \
          results; frames from a deposed coordinator (stale fencing \
          epoch) are rejected. Serves until the coordinator dismisses \
          it with a cluster shutdown.")
    Term.(
      const run $ connect_arg $ name_arg $ capacity_arg $ jobs_arg
      $ domains_arg $ trace_file_arg $ cache_file_arg $ metrics_file_arg
      $ checkpoint_dir_arg $ checkpoint_every_arg $ retries_arg $ backoff_arg
      $ quarantine_after_arg $ failpoint_arg $ verbose_arg)

let submit_cmd =
  let manifest_arg =
    let doc =
      "Manifest file (same format as $(b,psdp batch)): one JSON job per \
       line. Relative $(b,file) paths resolve against the manifest's \
       directory; the files must be readable by the workers (shared \
       filesystem)."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"MANIFEST" ~doc)
  in
  let timeout_arg =
    let doc = "Give up after $(docv) seconds without all results." in
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let shutdown_flag =
    let doc =
      "After collecting every result, ask the coordinator to stop the \
       whole cluster."
    in
    Arg.(value & flag & info [ "shutdown" ] ~doc)
  in
  let retry_cycles_arg =
    let doc =
      "Full passes over the $(b,--connect) list (with decorrelated-jitter \
       backoff between passes) before giving up with exit code 3."
    in
    Arg.(value & opt int 30 & info [ "retry-cycles" ] ~docv:"N" ~doc)
  in
  let run connect manifest timeout shutdown retry_cycles trace_path out
      verbosity =
    setup_logs verbosity;
    let die (f : Dist.Client.failure) =
      Printf.eprintf "psdp submit: %s\n" (Dist.Client.failure_to_string f);
      exit
        (match f with
        | Dist.Client.Unreachable _ -> exit_unreachable
        | Dist.Client.Refused _ -> exit_bad_input
        | Dist.Client.Timed_out _ -> exit_infeasible)
    in
    let text =
      try
        let ic = open_in manifest in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with Sys_error msg ->
        Printf.eprintf "psdp submit: %s\n" msg;
        exit exit_bad_input
    in
    match Job.parse_manifest ~dir:(Filename.dirname manifest) text with
    | Error msg ->
        Printf.eprintf "psdp submit: %s\n" msg;
        exit exit_bad_input
    | Ok specs -> (
        (* With --trace, the client is the trace-root owner: each job's
           context travels in its spec and the coordinator's and workers'
           spans assemble under the client's "request" span. *)
        let trace_oc = Option.map open_out trace_path in
        let trace =
          match trace_oc with Some oc -> Trace.channel oc | None -> Trace.null
        in
        if Trace.enabled trace then Trace.set_role trace "client";
        let retry =
          Psdp_fault.Retry.make ~base:0.05 ~cap:1.0
            ~max_attempts:(max 1 retry_cycles) ()
        in
        match Dist.Client.connect ~trace ~retry connect with
        | Error f ->
            Option.iter close_out trace_oc;
            die f
        | Ok client ->
            Fun.protect
              ~finally:(fun () ->
                Dist.Client.close client;
                Option.iter close_out trace_oc)
              (fun () ->
                List.iter
                  (fun spec ->
                    match Dist.Client.submit client spec with
                    | Ok () -> ()
                    | Error f -> die f)
                  specs;
                match
                  Dist.Client.collect ?timeout client
                    ~expected:(List.length specs)
                with
                | Error f -> die f
                | Ok results ->
                    if shutdown then Dist.Client.shutdown_cluster client;
                    (if out = "-" then List.iter (print_result stdout) results
                     else begin
                       let oc = open_out out in
                       List.iter (print_result oc) results;
                       close_out oc
                     end);
                    let bad =
                      List.length
                        (List.filter (fun r -> not (result_ok r)) results)
                    in
                    Printf.eprintf "submit: %d jobs, %d ok, %d not ok\n"
                      (List.length results)
                      (List.length results - bad)
                      bad;
                    if bad > 0 then exit exit_infeasible))
  in
  Cmd.v
    (Cmd.info "submit" ~exits:solver_exits
       ~doc:
         "Submit a manifest of jobs to a running coordinator and wait for \
          the results (streamed back in completion order). The client \
          self-heals across coordinator failovers: on a dropped link it \
          reconnects down the $(b,--connect) list and resubmits every \
          job whose result has not landed, idempotently by job id — the \
          coordinator answers already-finished jobs from its journal, so \
          nothing runs twice and nothing is lost. Exits 1 when a job \
          failed or results did not arrive in time, 2 on manifest or \
          rejection errors, 3 when no coordinator was reachable within \
          $(b,--retry-cycles).")
    Term.(
      const run $ connect_arg $ manifest_arg $ timeout_arg $ shutdown_flag
      $ retry_cycles_arg $ trace_file_arg $ out_arg $ verbose_arg)

let main =
  let doc = "width-independent parallel positive SDP solver (SPAA'12)" in
  Cmd.group
    (Cmd.info "psdp" ~version:"1.0.0" ~doc)
    [
      gen_cmd; info_cmd; solve_cmd; cover_cmd; decide_cmd; batch_cmd;
      serve_cmd; resume_cmd; trace_group_cmd; slo_group_cmd;
      fuzz_cmd; coordinator_cmd;
      worker_cmd; submit_cmd;
    ]

let () = exit (Cmd.eval main)
