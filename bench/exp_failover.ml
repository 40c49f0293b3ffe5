(* EXP17: coordinator failover downtime — SIGKILL to first post-failover
   completion.

   A real primary/standby pair over Unix sockets: the primary journals
   to its store while the standby tails the WAL byte-for-byte; workers
   and the client hold both addresses. Mid-batch the primary is killed
   with SIGKILL (no goodbye, no flush — the worst case short of disk
   loss). The clock then runs until the client receives its first
   result under the new reign: that window covers heartbeat-silence
   detection, replica replay, epoch bump, worker re-registration and
   re-execution — the whole recovery path, measured end to end.

   Two honesty notes. First, downtime is dominated by the detection
   grace (the standby must outwait a heartbeat gap before declaring the
   primary dead), so the knob that matters is printed next to the
   number. Second, jobs completed-but-unreported at kill time are
   answered from the replicated journal, not re-run. *)

open Psdp_prelude
open Psdp_instances
module Job = Psdp_engine.Job
module Client = Psdp_dist.Client
module Transport = Psdp_dist.Transport

let cli =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/psdp_cli.exe"

let heartbeat = 0.25
let grace = 1.25

let instances () =
  let rng = Rng.create 431 in
  [
    ("proj", fst (Known_opt.orthogonal_projectors ~rng ~dim:12 ~n:4));
    ("rank1", fst (Known_opt.rank_one_orthonormal ~rng ~dim:10 ~n:6));
    ("rand", Random_psd.factored ~rng ~dim:8 ~n:5 ());
  ]

let workload ~quick ~dir =
  let epses = if quick then [ 0.25; 0.2 ] else [ 0.2; 0.15; 0.12; 0.1 ] in
  List.concat_map
    (fun (name, inst) ->
      let file = Filename.concat dir (name ^ ".inst") in
      Loader.save file inst;
      List.map
        (fun eps ->
          Job.solve_spec
            ~id:(Printf.sprintf "exp17-%s@%.2f" name eps)
            ~eps (Job.File file))
        epses)
    (instances ())

let with_temp_dir f =
  let dir = Filename.temp_file "psdp-exp17" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

let spawn args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      Unix.create_process cli (Array.of_list (cli :: args)) null null null)

let kill9 pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let run ~quick () =
  Bench_util.section
    "EXP17: failover downtime — SIGKILL primary to first post-failover \
     completion";
  with_temp_dir (fun dir ->
      let jobs = workload ~quick ~dir in
      let njobs = List.length jobs in
      let sock_a = Filename.concat dir "primary.sock" in
      let sock_b = Filename.concat dir "standby.sock" in
      let addrs = Printf.sprintf "unix:%s,unix:%s" sock_a sock_b in
      let hb = string_of_float heartbeat and gr = string_of_float grace in
      let primary =
        spawn
          [ "coordinator"; "--listen"; "unix:" ^ sock_a; "--checkpoint-dir";
            Filename.concat dir "store-a"; "--heartbeat"; hb; "--grace"; gr ]
      in
      let standby =
        spawn
          [ "coordinator"; "--standby"; "--listen"; "unix:" ^ sock_b;
            "--peers"; "unix:" ^ sock_a; "--checkpoint-dir";
            Filename.concat dir "store-b"; "--heartbeat"; hb; "--grace"; gr ]
      in
      let wpids =
        List.init 2 (fun i ->
            spawn
              [ "worker"; "--connect"; addrs; "--name";
                Printf.sprintf "w-%d" i; "--domains"; "1"; "--jobs"; "2" ])
      in
      Fun.protect
        ~finally:(fun () ->
          List.iter kill9 (primary :: standby :: wpids);
          List.iter reap (primary :: standby :: wpids))
        (fun () ->
          let client =
            match
              Client.connect
                [ Transport.Unix_sock sock_a; Transport.Unix_sock sock_b ]
            with
            | Ok c -> c
            | Error f ->
                failwith
                  ("EXP17: primary never came up: "
                  ^ Client.failure_to_string f)
          in
          let t0 = Timer.now () in
          List.iter
            (fun spec ->
              match Client.submit client spec with
              | Ok () -> ()
              | Error f ->
                  failwith ("EXP17: submit: " ^ Client.failure_to_string f))
            jobs;
          (* Warm phase: let the cluster prove it is flowing, then pull
             the rug. *)
          let warm = max 1 (njobs / 3) in
          (match Client.collect ~timeout:300.0 client ~expected:warm with
          | Ok _ -> ()
          | Error f ->
              failwith ("EXP17: warm phase: " ^ Client.failure_to_string f));
          kill9 primary;
          reap primary;
          let t_kill = Timer.now () in
          (* Downtime: the gap until the next certified result reaches
             the client through the promoted standby. *)
          (match Client.collect ~timeout:300.0 client ~expected:1 with
          | Ok _ -> ()
          | Error f ->
              failwith
                ("EXP17: no result after failover: "
                ^ Client.failure_to_string f));
          let downtime = Timer.now () -. t_kill in
          let remaining = njobs - warm - 1 in
          let results =
            if remaining <= 0 then []
            else
              match
                Client.collect ~timeout:300.0 client ~expected:remaining
              with
              | Ok rs -> rs
              | Error f ->
                  failwith ("EXP17: tail: " ^ Client.failure_to_string f)
          in
          List.iter
            (fun (r : Job.result) ->
              match r.Job.outcome with
              | Job.Solved { certified = true; _ } -> ()
              | _ -> failwith ("EXP17: uncertified result " ^ r.Job.id))
            results;
          let total = Timer.now () -. t0 in
          Client.shutdown_cluster client;
          Client.close client;
          Printf.printf
            "%d jobs; heartbeat %.2fs, grace %.2fs\n\
             downtime (SIGKILL -> first post-failover result): %.2fs\n\
             total batch time across the failover: %.2fs\n"
            njobs heartbeat grace downtime total;
          downtime))
