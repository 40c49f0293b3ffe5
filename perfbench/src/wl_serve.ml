(* serve-lineage: one generator thread holding nproc requests
   outstanding through Serve.submit, over the configuration of

     psdp serve --jobs N --domains 1 --checkpoint-dir D --metrics F --trace T

   (N = nproc runners, each on a single-domain pool, a durable store, a
   metrics registry, a span profiler and a JSONL trace sink). Two
   runners over a two-domain pool would put three busy domains on two
   cores, and every OCaml 5 minor collection stops all domains.

   Drifted children of a few parents arrive as file-backed exact jobs:
   children that declare their parent's digest, children that do not,
   exact repeats and ε-refinements of answered children. A repeat or
   refinement is released only after its source's response arrived, so
   every request's cache outcome is the same in every run. *)

open Psdp_engine
module Serve = Psdp_serve.Serve
module Loader = Psdp_instances.Loader
module Pool = Psdp_parallel.Pool
module Store = Psdp_store.Store
module Metrics = Psdp_obs.Metrics
module Profiler = Psdp_obs.Profiler

let window_size () = Domain.recommended_domain_count ()

type system = {
  dir : string;
  pool : Pool.t;
  store : Store.t;
  trace_oc : out_channel;
  serve : Serve.t;
  reqs : Requests.lineage_req array;
  parent_digests : string array;
  (* response plumbing: the runner domains hand responses to the
     generator *)
  lock : Mutex.t;
  cond : Condition.t;
  responses : (string, Serve.response * float) Hashtbl.t;
}

let trace_file sys = Filename.concat sys.dir "trace.jsonl"
let store_dir sys = Filename.concat sys.dir "store"

let on_response sys_cell (r : Serve.response) =
  let t = Common.now () in
  match !sys_cell with
  | None -> ()
  | Some sys ->
      Mutex.protect sys.lock (fun () ->
          Hashtbl.replace sys.responses r.Serve.id (r, t);
          Condition.broadcast sys.cond)

let wait_for sys ids =
  Mutex.protect sys.lock (fun () ->
      while not (List.for_all (Hashtbl.mem sys.responses) ids) do
        Condition.wait sys.cond sys.lock
      done)

(* One set-up in [dir]: write the parent and child instance files,
   start the serving stack, and solve every parent once (cache
   seeding). *)
let setup ~seed ~n ~dir =
  Common.rm_rf dir;
  Common.mkdir_p dir;
  let parents = Requests.lineage_parents in
  let reqs = Requests.lineage_list ~seed n in
  let parent_insts = Array.init parents Requests.lineage_parent in
  let parent_files =
    Array.mapi
      (fun k inst ->
        let f = Filename.concat dir (Printf.sprintf "parent-%d.inst" k) in
        Loader.save f inst;
        f)
      parent_insts
  in
  Array.iter
    (fun (r : Requests.lineage_req) ->
      if r.source = None then
        Loader.save (Filename.concat dir r.file)
          (Requests.lineage_child ~parents:parent_insts r.block r.slot))
    reqs;
  let parent_digests = Array.map Loader.digest parent_insts in
  let pool = Pool.create ~num_domains:1 () in
  let store =
    match Store.open_store (Filename.concat dir "store") with
    | Ok s -> s
    | Error e -> failwith ("serve-lineage: store: " ^ e)
  in
  let trace_oc = open_out (Filename.concat dir "trace.jsonl") in
  let trace = Trace.channel trace_oc in
  Trace.set_role trace "serve";
  let metrics = Metrics.create () in
  let profiler = Profiler.create ~registry:metrics () in
  let cell = ref None in
  let config =
    {
      Serve.queue_cap = 64;
      default_deadline = None;
      degrade = Psdp_fault.Degrade.none;
    }
  in
  let serve =
    Serve.create ~metrics config
      ~make_engine:(fun ~on_complete ->
        Engine.create ~pool ~max_in_flight:(window_size ()) ~trace ~store
          ~metrics ~profiler ~checkpoint_every:1 ~on_complete ())
      ~on_response:(on_response cell) ()
  in
  let sys =
    {
      dir;
      pool;
      store;
      trace_oc;
      serve;
      reqs;
      parent_digests;
      lock = Mutex.create ();
      cond = Condition.create ();
      responses = Hashtbl.create 256;
    }
  in
  cell := Some sys;
  let ids =
    Array.to_list
      (Array.mapi
         (fun k f ->
           let id = Printf.sprintf "parent-%d" k in
           Serve.submit serve
             (Job.solve_spec ~id ~eps:Requests.lineage_eps ~backend:Psdp_core.Decision.Exact
                (Job.File f));
           id)
         parent_files)
  in
  wait_for sys ids;
  sys

let teardown sys =
  Serve.shutdown sys.serve;
  Pool.shutdown sys.pool;
  Store.close sys.store;
  close_out sys.trace_oc

let spec sys (r : Requests.lineage_req) =
  Job.solve_spec ~id:r.lid ~eps:r.leps ~backend:Psdp_core.Decision.Exact
    ?parent:(Option.map (fun k -> sys.parent_digests.(k)) r.parent)
    (Job.File (Filename.concat sys.dir r.file))

let check (resp : Serve.response) =
  match resp.outcome with
  | Serve.Rejected reason ->
      Verify.fail ("rejected: " ^ Serve.reject_reason_string reason)
  | Serve.Done r -> (
      match r.Job.outcome with
      | Job.Solved s ->
          let gap = (s.upper_bound /. s.value) -. 1.0 in
          if not s.certified then { (Verify.fail "uncertified") with gap }
          else if s.value > s.upper_bound then
            { (Verify.fail "value above upper bound") with gap }
          else
            let within =
              s.upper_bound
              <= (1.0 +. resp.served_eps) *. s.value *. (1.0 +. Verify.rel_tol)
            in
            {
              Verify.sound = true;
              ok = within;
              gap;
              note = (if within then "" else "bracket wider than 1+ε");
            }
      | Job.Decided _ -> Verify.fail "unexpected decision outcome"
      | Job.Failed e -> Verify.fail ("failed: " ^ e)
      | Job.Cancelled -> Verify.fail "cancelled"
      | Job.Timed_out -> Verify.fail "timed out")

(* (decision calls, iterations, cache outcome) of a solved answer. *)
let solved (resp : Serve.response) =
  match resp.outcome with
  | Serve.Done
      { Job.outcome = Job.Solved { decision_calls; iterations; cache; _ }; _ }
    ->
      Some (decision_calls, iterations, cache)
  | _ -> None

type window = {
  pass : Outcome.pass;
  sent : (string, float) Hashtbl.t;  (** request id → submit time *)
  admit : (string, float) Hashtbl.t;  (** request id → Serve.submit duration *)
  store_bytes : int;
  trace_bytes : int;
}

let journal sys = Filename.concat (store_dir sys) "journal.jsonl"

(* The timed window: request [i] is released once fewer than nproc
   requests are outstanding and its source (if any) has answered. *)
let run_window sys =
  let w = window_size () in
  let sent = Hashtbl.create 256 and admit = Hashtbl.create 256 in
  let store0 = Common.dir_bytes (store_dir sys) in
  let trace0 = Common.file_bytes (trace_file sys) in
  let journal0 = Common.line_count (journal sys) in
  let events0 = Common.line_count (trace_file sys) in
  let outstanding () =
    Hashtbl.fold
      (fun id _ acc -> if Hashtbl.mem sys.responses id then acc else acc + 1)
      sent 0
  in
  let cpu0 = Common.self_cpu () in
  let t0 = Common.now () in
  Array.iter
    (fun (r : Requests.lineage_req) ->
      Mutex.protect sys.lock (fun () ->
          while
            outstanding () >= w
            ||
            match r.source with
            | Some j -> not (Hashtbl.mem sys.responses sys.reqs.(j).lid)
            | None -> false
          do
            Condition.wait sys.cond sys.lock
          done);
      let s = Common.now () in
      Mutex.protect sys.lock (fun () -> Hashtbl.replace sent r.lid s);
      Serve.submit sys.serve (spec sys r);
      Hashtbl.replace admit r.lid (Common.now () -. s))
    sys.reqs;
  wait_for sys
    (Array.to_list (Array.map (fun (r : Requests.lineage_req) -> r.lid) sys.reqs));
  let window = Common.now () -. t0 in
  let cpu = Common.self_cpu () -. cpu0 in
  flush sys.trace_oc;
  let resp_of (r : Requests.lineage_req) = Hashtbl.find sys.responses r.lid in
  (* Latency through Serve is admission → response, as the tier
     reports it. *)
  let answers =
    Array.map
      (fun (r : Requests.lineage_req) ->
        let resp, _ = resp_of r in
        { Outcome.id = r.lid; latency = resp.Serve.latency; verdict = check resp })
      sys.reqs
  in
  let total f =
    Array.fold_left
      (fun acc r ->
        match solved (fst (resp_of r)) with Some x -> acc + f x | None -> acc)
      0 sys.reqs
  in
  let kind c = total (fun (_, _, c') -> if c' = c then 1 else 0) in
  let p =
    { Outcome.answers; window; cpu; peak_mb = Common.proc_hwm_mb 0; counts = [] }
  in
  let counts =
    [
      ("requests", Array.length sys.reqs);
      ("correct", Outcome.correct p);
      ("sound", Array.length sys.reqs - Outcome.unsound p);
      ("decision_calls", total (fun (c, _, _) -> c));
      ("iterations", total (fun (_, i, _) -> i));
      ("cache_hit", kind Job.Hit);
      ("cache_warm", kind Job.Warm);
      ("cache_parent", kind Job.Parent);
      ("cache_miss", kind Job.Miss);
      ("journal_records", Common.line_count (journal sys) - journal0);
      ("trace_events", Common.line_count (trace_file sys) - events0);
    ]
  in
  {
    pass = { p with counts };
    sent;
    admit;
    store_bytes = Common.dir_bytes (store_dir sys) - store0;
    trace_bytes = Common.file_bytes (trace_file sys) - trace0;
  }

(* The traced view of a finished window: one tree per request, rooted
   at the benchmark's span from calling Serve.submit to seeing the
   response, with the serve tier's own trace stream grafted beneath.
   Serve.submit's own duration (serve.admit_s) is not a child span: the
   serve tier's admission-to-response span starts inside it. *)
let request_spans sys (w : window) =
  let spans = Spans.create () in
  let roots = Hashtbl.create 256 in
  Array.iter
    (fun (r : Requests.lineage_req) ->
      let _, t = Hashtbl.find sys.responses r.lid in
      let root =
        Spans.add spans ~req:r.lid ~parent:(-1) ~name:"request" ~layer:"bench"
          ~dur:(t -. Hashtbl.find w.sent r.lid)
      in
      Hashtbl.replace roots r.lid (r.lid, root))
    sys.reqs;
  ignore
    (Probe.graft spans ~roots ~events:[]
       ~files:[ trace_file sys ]);
  spans

let layer_metrics sys (w : window) spans =
  let m = Outcome.metric in
  let rows =
    Array.to_list sys.reqs
    |> List.map (fun (r : Requests.lineage_req) ->
           (r, fst (Hashtbl.find sys.responses r.lid)))
  in
  let done_ =
    List.filter_map
      (fun (r, (resp : Serve.response)) ->
        match resp.outcome with
        | Serve.Done res -> Some (r, resp, res)
        | Serve.Rejected _ -> None)
      rows
  in
  let sol =
    List.filter_map
      (fun (r, resp) -> Option.map (fun s -> (r, s)) (solved resp))
      rows
  in
  let n = float_of_int (List.length rows) in
  let nsol = float_of_int (List.length sol) in
  let count p = float_of_int (List.length (List.filter p sol)) in
  let mean_iters p =
    Common.mean
      (Array.of_list
         (List.filter_map
            (fun (r, (_, i, c)) -> if p r c then Some (float_of_int i) else None)
            sol))
  in
  let sum f = float_of_int (List.fold_left (fun acc (_, s) -> acc + f s) 0 sol) in
  let trees = Spans.trees spans in
  let named names (s : Spans.span) = List.mem s.name names in
  [
    m "core.iterations_per_answer" "count" (sum (fun (_, i, _) -> i) /. n);
    m "core.decision_calls_per_answer" "count" (sum (fun (c, _, _) -> c) /. n);
    m "linalg.dense_expm_share" "ratio" (Spans.share trees (named [ "expm" ]));
    m "linalg.cert_share" "ratio" (Spans.share trees (named [ "cert"; "certify" ]));
    m "engine.exec_s" "s"
      (Common.median
         (Array.of_list (List.map (fun (_, _, (res : Job.result)) -> res.elapsed) done_)));
    m "engine.queue_wait_s" "s"
      (Common.median
         (Array.of_list
            (List.map
               (fun (_, (resp : Serve.response), (res : Job.result)) ->
                 resp.latency -. res.elapsed)
               done_)));
    m "engine.cache_hit_ratio" "ratio"
      (Common.ratio (count (fun (_, (_, _, c)) -> c = Job.Hit)) nsol);
    m "engine.warm_ratio" "ratio"
      (Common.ratio
         (count (fun (_, (_, _, c)) -> c = Job.Warm || c = Job.Parent))
         nsol);
    m "engine.lineage_iter_ratio" "ratio"
      (Common.ratio
         (mean_iters (fun (r : Requests.lineage_req) c ->
              r.lkind = Requests.Declared && c = Job.Parent))
         (mean_iters (fun (r : Requests.lineage_req) c ->
              r.lkind = Requests.Undeclared && c = Job.Miss)));
    m "serve.admit_s" "s"
      (Common.median (Array.of_seq (Hashtbl.to_seq_values w.admit)));
    m "serve.shed_ratio" "ratio"
      (Common.ratio (float_of_int (List.length rows - List.length done_)) n);
    m "store.bytes_per_answer" "bytes" (float_of_int w.store_bytes /. n);
    m "obs.trace_bytes_per_answer" "bytes" (float_of_int w.trace_bytes /. n);
  ]

(* Files the workload's requests name, for the loader timings. *)
let files sys =
  List.sort_uniq compare
    (Array.to_list
       (Array.map (fun (r : Requests.lineage_req) -> Filename.concat sys.dir r.file) sys.reqs))
