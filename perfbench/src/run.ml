(* One benchmark run of one workload: repeated set-ups, the timed
   window, the answer checks and, for a traced run, the traced replays
   that yield the per-layer metrics. *)

module Pool = Psdp_parallel.Pool
module Loader = Psdp_instances.Loader

let workloads = [ "solve-small"; "decide-large"; "serve-lineage"; "cluster-repeat" ]

(* Requests per run: [rate] answers per second (as measured on a
   two-vCPU VM when the benchmark was defined) times the run length,
   rounded to whole blocks. The count is fixed per workload and run
   length — never by the clock — so gap_mean, ok_ratio and the guard's
   counts are exact for a seed. *)
let requests workload seconds =
  let sized ~rate ~block ~cap =
    let blocks = Float.round (rate *. float_of_int seconds /. float_of_int block) in
    min cap (block * max 1 (int_of_float blocks))
  in
  match workload with
  | "solve-small" -> sized ~rate:2.4 ~block:16 ~cap:Requests.solve_cell
  | "decide-large" -> sized ~rate:1.4 ~block:1 ~cap:max_int
  | "serve-lineage" -> sized ~rate:12.0 ~block:Requests.lineage_block ~cap:max_int
  | "cluster-repeat" -> sized ~rate:1400.0 ~block:1 ~cap:max_int
  | w -> invalid_arg ("unknown workload " ^ w)

(* Every set-up runs this many times; setup_s is their median. *)
let setup_repeats = 5

let repeat_setups make teardown =
  let times = Array.make setup_repeats 0.0 in
  let last = ref None in
  for k = 0 to setup_repeats - 1 do
    Option.iter teardown !last;
    let t0 = Common.now () in
    let s = make k in
    times.(k) <- Common.now () -. t0;
    last := Some s
  done;
  (times, Option.get !last)

type result = {
  setups : float array;
  pass : Outcome.pass;
  per_layer : Outcome.metric list;  (** traced runs only *)
  mismatches : string list;
      (** traced-replay counts that differ from the timed window's *)
  pool_size : int;
}

let m = Outcome.metric

(* p50 of timed Loader.load_result and Loader.digest over the
   workload's instance files, three times each. *)
let loader_metrics files =
  let time f =
    let t0 = Common.now () in
    ignore (f ());
    Common.now () -. t0
  in
  let loads = ref [] and digests = ref [] in
  for _ = 1 to 3 do
    List.iter
      (fun file ->
        loads := time (fun () -> Loader.load_result file) :: !loads;
        match Loader.load_result file with
        | Ok inst -> digests := time (fun () -> Loader.digest inst) :: !digests
        | Error e -> failwith e)
      files
  done;
  [
    m "instances.load_s" "s" (Common.median (Array.of_list !loads));
    m "instances.digest_s" "s" (Common.median (Array.of_list !digests));
  ]

let trace_metrics ~coverage ~overhead =
  [ m "trace.coverage" "ratio" coverage; m "trace.overhead_ratio" "ratio" overhead ]

(* Counts a traced replay must reproduce exactly. *)
let compare_counts ~window ~traced =
  List.filter_map
    (fun (k, v) ->
      match List.assoc_opt k window with
      | Some v0 when v0 <> v -> Some (Printf.sprintf "%s: window %d, traced %d" k v0 v)
      | _ -> None)
    traced

let inproc ~traced ~jobs ~warmups ~solve =
  let setups, s =
    repeat_setups
      (fun _ -> Wl_inproc.setup ~jobs ~warmups ())
      (fun (s : _ Wl_inproc.setup) -> Pool.shutdown s.pool)
  in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown s.pool)
    (fun () ->
      let pass = Wl_inproc.timed_pass ~pool:s.pool s.jobs in
      let per_layer, mismatches =
        if not traced then ([], [])
        else begin
          let tr = Wl_inproc.traced_pass ~pool:s.pool s.jobs in
          let single = Pool.create ~num_domains:1 () in
          let p1 =
            Fun.protect
              ~finally:(fun () -> Pool.shutdown single)
              (fun () -> Wl_inproc.timed_pass ~check:false ~pool:single s.jobs)
          in
          let speedup = p1.window /. pass.window in
          let trees = Spans.trees tr.spans in
          ( Wl_inproc.layer_metrics ~solve ~speedup tr
            @ trace_metrics ~coverage:(Spans.coverage trees)
                ~overhead:(tr.trace_wall /. pass.window),
            compare_counts ~window:pass.counts
              ~traced:
                [ ("decision_calls", tr.calls); ("iterations", tr.iterations) ] )
        end
      in
      { setups; pass; per_layer; mismatches; pool_size = Pool.size s.pool })

let solve_small ~seed ~traced ~n =
  inproc ~traced ~solve:true
    ~jobs:(fun () -> Array.map Wl_inproc.solve_job (Requests.solve_list ~seed n))
    ~warmups:(fun () -> Array.map Wl_inproc.solve_job (Requests.solve_warmups ()))

let decide_large ~seed ~traced ~n =
  inproc ~traced ~solve:false
    ~jobs:(fun () -> Array.map Wl_inproc.decide_job (Requests.decide_list ~seed n))
    ~warmups:(fun () -> Array.map Wl_inproc.decide_job (Requests.decide_warmups ()))

let serve_lineage ~seed ~traced ~n =
  let setups, sys =
    repeat_setups
      (fun k -> Wl_serve.setup ~seed ~n ~dir:(Printf.sprintf "lineage-%d" k))
      Wl_serve.teardown
  in
  let w = Fun.protect ~finally:(fun () -> Wl_serve.teardown sys) (fun () -> Wl_serve.run_window sys) in
  let per_layer, mismatches =
    if not traced then ([], [])
    else begin
      (* A second window on a fresh stack gives the traced throughput;
         the stack writes its trace stream in both, so the difference
         is the benchmark's own span bookkeeping. *)
      let sys2 = Wl_serve.setup ~seed ~n ~dir:"lineage-traced" in
      let w2 =
        Fun.protect
          ~finally:(fun () -> Wl_serve.teardown sys2)
          (fun () -> Wl_serve.run_window sys2)
      in
      let spans2 = Wl_serve.request_spans sys2 w2 in
      ( Wl_serve.layer_metrics sys2 w2 spans2
        @ loader_metrics (Wl_serve.files sys2)
        @ trace_metrics
            ~coverage:(Spans.coverage (Spans.trees spans2))
            ~overhead:(w2.pass.window /. w.pass.window),
        compare_counts ~window:w.pass.counts ~traced:w2.pass.counts )
    end
  in
  { setups; pass = w.pass; per_layer; mismatches; pool_size = 1 }

let cluster_repeat ~cli ~seed ~traced ~n =
  let setups, c =
    repeat_setups
      (fun k ->
        Wl_cluster.setup ~cli ~seed ~traced:false ~dir:(Printf.sprintf "cluster-%d" k))
      Wl_cluster.teardown
  in
  let w =
    match Wl_cluster.run_window c ~n with
    | w ->
        Wl_cluster.teardown c;
        w
    | exception e ->
        Wl_cluster.abort c;
        raise e
  in
  let per_layer, mismatches =
    if not traced then ([], [])
    else begin
      let c2 = Wl_cluster.setup ~cli ~seed ~traced:true ~dir:"cluster-traced" in
      let tb0 = Wl_cluster.trace_bytes c2 in
      let w2 =
        match Wl_cluster.run_window c2 ~n with
        | w2 ->
            Wl_cluster.teardown c2;
            w2
        | exception e ->
            Wl_cluster.abort c2;
            raise e
      in
      let trace_bytes = Wl_cluster.trace_bytes c2 - tb0 in
      let spans, waits = Wl_cluster.request_spans c2 w2 in
      ( Wl_cluster.layer_metrics c2 w2 ~waits ~trace_bytes
        @ loader_metrics (Array.to_list c2.files)
        @ trace_metrics
            ~coverage:(Spans.coverage (Spans.trees spans))
            ~overhead:(w2.pass.window /. w.pass.window),
        compare_counts
          ~window:(List.filter (fun (k, _) -> k <> "journal_records") w.pass.counts)
          ~traced:w2.pass.counts )
    end
  in
  { setups; pass = w.pass; per_layer; mismatches; pool_size = 1 }

let run ~cli ~workload ~seed ~seconds ~traced =
  let n = requests workload seconds in
  match workload with
  | "solve-small" -> solve_small ~seed ~traced ~n
  | "decide-large" -> decide_large ~seed ~traced ~n
  | "serve-lineage" -> serve_lineage ~seed ~traced ~n
  | "cluster-repeat" -> cluster_repeat ~cli ~seed ~traced ~n
  | w -> invalid_arg ("unknown workload " ^ w)

(* Every per-layer metric, in the order BENCHMARK.json lists them. A
   workload reports 0 for a layer it bypasses. *)
let per_layer_names =
  [
    ("core.iterations_per_answer", "count");
    ("core.decision_calls_per_answer", "count");
    ("core.useful_call_ratio", "ratio");
    ("core.iteration_s", "s");
    ("core.decision_call_s", "s");
    ("expm.chain_share", "ratio");
    ("expm.matvecs_per_iteration", "count");
    ("expm.degree_mean", "count");
    ("expm.taylor_fallbacks", "count");
    ("sparse.gram_share", "ratio");
    ("sketch.share", "ratio");
    ("linalg.cert_share", "ratio");
    ("linalg.dense_expm_share", "ratio");
    ("parallel.speedup", "ratio");
    ("parallel.loops_per_iteration", "count");
    ("parallel.busy_fallbacks", "count");
    ("engine.exec_s", "s");
    ("engine.queue_wait_s", "s");
    ("engine.cache_hit_ratio", "ratio");
    ("engine.warm_ratio", "ratio");
    ("engine.lineage_iter_ratio", "ratio");
    ("serve.admit_s", "s");
    ("serve.shed_ratio", "ratio");
    ("store.bytes_per_answer", "bytes");
    ("obs.trace_bytes_per_answer", "bytes");
    ("instances.load_s", "s");
    ("instances.digest_s", "s");
    ("dist.rtt_s", "s");
    ("dist.coordinator_cpu_s_per_answer", "s");
    ("dist.worker_cpu_s_per_answer", "s");
    ("dist.frame_bytes_per_answer", "bytes");
    ("dist.codec_s_per_answer", "s");
    ("dist.queue_wait_s", "s");
    ("trace.coverage", "ratio");
    ("trace.overhead_ratio", "ratio");
  ]

let complete_per_layer measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (x : Outcome.metric) -> x.name = name) measured with
      | Some x -> x
      | None -> m name unit_ 0.0)
    per_layer_names
