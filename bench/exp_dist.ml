(* EXP15: distributed sustained throughput — 1 vs N worker processes.

   The same batch of solve jobs (the EXP10 engine-bench instance mix at
   a spread of accuracy targets, all distinct so no per-worker cache hit
   flatters anybody) is raced through real OS processes: one `psdp
   coordinator` plus 1, 2 and 4 `psdp worker` processes on a Unix
   socket, each worker pinned to a single pool domain so the comparison
   is worker processes, not hidden intra-worker parallelism. Wall-clock
   runs from first submission to last verified result.

   Honesty matters more than the headline: distributing across N
   processes can only pay when the machine has cores to back them, so
   the available core count is printed next to every speedup. On a
   1-core container the expected result is ~1× (plus protocol
   overhead); the ≥3×-at-4-workers claim is reproducible on a ≥4-core
   machine. *)

open Psdp_prelude
open Psdp_instances
module Job = Psdp_engine.Job
module Client = Psdp_dist.Client
module Transport = Psdp_dist.Transport

let cli =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/psdp_cli.exe"

let instances () =
  let rng = Rng.create 97 in
  [
    ("proj", fst (Known_opt.orthogonal_projectors ~rng ~dim:12 ~n:4));
    ("rank1", fst (Known_opt.rank_one_orthonormal ~rng ~dim:10 ~n:6));
    ("rand", Random_psd.factored ~rng ~dim:8 ~n:5 ());
    ("cyc", Graph_packing.edge_packing (Graph.cycle 6));
  ]

let workload ~quick ~dir =
  let epses =
    if quick then [ 0.3; 0.25 ] else [ 0.2; 0.15; 0.12; 0.1 ]
  in
  List.concat_map
    (fun (name, inst) ->
      let file = Filename.concat dir (name ^ ".inst") in
      Loader.save file inst;
      List.map
        (fun eps ->
          Job.solve_spec
            ~id:(Printf.sprintf "exp15-%s@%.2f" name eps)
            ~eps (Job.File file))
        epses)
    (instances ())

let with_temp_dir f =
  let dir = Filename.temp_file "psdp-exp15" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

let spawn args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () -> Unix.create_process cli (Array.of_list (cli :: args)) null null null)

let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let connect_with_retry addr =
  match Client.connect [ addr ] with
  | Ok c -> c
  | Error f ->
      failwith
        ("EXP15: coordinator never came up: " ^ Client.failure_to_string f)

(* One race: a fresh cluster of [workers] processes, the whole batch
   submitted at once, timed to the last result. Returns elapsed seconds. *)
let race ~dir ~workers ~jobs =
  let run_dir = Filename.concat dir (Printf.sprintf "w%d" workers) in
  Unix.mkdir run_dir 0o755;
  let sock = Filename.concat run_dir "c.sock" in
  let coord =
    spawn
      [ "coordinator"; "--listen"; "unix:" ^ sock; "--checkpoint-dir";
        Filename.concat run_dir "store"; "--heartbeat"; "0.5"; "--grace";
        "2.5" ]
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill coord Sys.sigkill with Unix.Unix_error _ -> ());
      reap coord)
    (fun () ->
      let client = connect_with_retry (Transport.Unix_sock sock) in
      let wpids =
        List.init workers (fun i ->
            spawn
              [ "worker"; "--connect"; "unix:" ^ sock; "--name";
                Printf.sprintf "w%d-%d" workers i; "--domains"; "1";
                "--jobs"; "2" ])
      in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
            wpids;
          List.iter reap wpids)
        (fun () ->
          let t0 = Timer.now () in
          List.iter
            (fun spec ->
              match Client.submit client spec with
              | Ok () -> ()
              | Error f ->
                  failwith ("EXP15: submit: " ^ Client.failure_to_string f))
            jobs;
          let results =
            match
              Client.collect ~timeout:600.0 client ~expected:(List.length jobs)
            with
            | Ok rs -> rs
            | Error f ->
                failwith ("EXP15: collect: " ^ Client.failure_to_string f)
          in
          let elapsed = Timer.now () -. t0 in
          List.iter
            (fun (r : Job.result) ->
              match r.Job.outcome with
              | Job.Solved { certified = true; _ } -> ()
              | _ -> failwith ("EXP15: uncertified result " ^ r.Job.id))
            results;
          Client.shutdown_cluster client;
          Client.close client;
          elapsed))

let run ~quick () =
  Bench_util.section "EXP15: distributed throughput — 1 vs N worker processes";
  let cores = Domain.recommended_domain_count () in
  let counts = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  with_temp_dir (fun dir ->
      let jobs = workload ~quick ~dir in
      let njobs = List.length jobs in
      Printf.printf
        "batch: %d solve jobs over %d instances; %d core(s) available\n" njobs
        (List.length (instances ()))
        cores;
      if cores < List.fold_left max 1 counts then
        Printf.printf
          "note: fewer cores than the largest fleet — speedups are bounded \
           by %d on this machine\n"
          cores;
      let runs =
        List.map
          (fun workers ->
            let elapsed = race ~dir ~workers ~jobs in
            (workers, elapsed, float_of_int njobs /. elapsed))
          counts
      in
      let _, t1, _ = List.hd runs in
      Printf.printf "%-10s %12s %12s %10s\n" "workers" "time(s)" "jobs/s"
        "speedup";
      List.iter
        (fun (w, t, thr) ->
          Printf.printf "%-10d %12.2f %12.2f %9.2fx\n" w t thr (t1 /. t))
        runs;
      runs)
