(* The two in-process workloads: one generator thread, one request
   outstanding, calls straight into the solver on the default pool.

   solve-small: Solver.solve_packing on small distinct instances — the
   bisection, the decision iterations and the small-m kernels do all the
   work; engine, serve and dist do none.

   decide-large: Decision.solve on Instance.scale t inst (what `psdp
   decide` runs) at m = 192 with a 16-row JL sketch — the paper's
   regime, past Certificate's dense cutoff. *)

open Psdp_core
module Pool = Psdp_parallel.Pool

type 'r job = {
  jid : string;
  call : string;  (** the public function the request calls *)
  exact : bool;  (** exact backend (dense kernels) *)
  run :
    pool:Pool.t ->
    prof:Psdp_obs.Profiler.span option ->
    on_iter:(Decision.iter_stats -> unit) option ->
    on_call:(call:int -> threshold:float -> unit) option ->
    checkpoint:(Solver.bisection_state -> unit) option ->
    'r;
  check : 'r -> Verify.verdict;
  calls : 'r -> int;
  iters : 'r -> int;
  bracket0 : (float * float) option;
      (** a-priori bisection bracket, for judging the first call *)
}

(* The bisection's documented starting bracket: the best single
   coordinate from below, the smaller of the single-coordinate sum and
   the trace bound from above. *)
let initial_bracket inst =
  let lmaxes =
    Array.map Psdp_sparse.Factored.lambda_max (Instance.factors inst)
  in
  let lo = 1.0 /. Array.fold_left Float.min Float.infinity lmaxes in
  let sum = Array.fold_left (fun acc l -> acc +. (1.0 /. l)) 0.0 lmaxes in
  let trace_bound =
    float_of_int (Instance.dim inst)
    /. Array.fold_left Float.min Float.infinity (Instance.traces inst)
  in
  (lo, Float.max lo (Float.min sum trace_bound))

let solve_job (r : Requests.solve_req) =
  let m = Instance.dim r.inst in
  let backend = Requests.to_backend ~m r.kind in
  {
    jid = r.id;
    call = "Solver.solve_packing";
    exact = r.kind = Requests.Exact;
    run =
      (fun ~pool ~prof ~on_iter ~on_call ~checkpoint ->
        Solver.solve_packing ~pool ~backend ?prof ?on_iter ?on_call ?checkpoint
          ~eps:r.eps r.inst);
    check = (fun res -> Verify.check_solve ?opt:r.opt r.inst ~eps:r.eps res);
    calls = (fun res -> res.Solver.decision_calls);
    iters = (fun res -> res.Solver.total_iterations);
    bracket0 = Some (initial_bracket r.inst);
  }

let decide_job (r : Requests.decide_req) =
  let scaled = Instance.scale r.threshold r.dinst in
  {
    jid = r.did;
    call = "Decision.solve";
    exact = false;
    run =
      (fun ~pool ~prof ~on_iter ~on_call:_ ~checkpoint:_ ->
        Decision.solve ~pool ~backend:Requests.decide_backend ?prof ?on_iter
          ~eps:Requests.decide_eps scaled);
    check =
      (fun res ->
        Verify.check_decide r.dinst ~threshold:r.threshold
          ~eps:Requests.decide_eps res);
    calls = (fun _ -> 1);
    iters = (fun res -> res.Decision.iterations);
    bracket0 = None;
  }

let plain job ~pool =
  job.run ~pool ~prof:None ~on_iter:None ~on_call:None ~checkpoint:None

(* ---- set-up --------------------------------------------------------- *)

type 'r setup = { pool : Pool.t; jobs : 'r job array }

(* One set-up: build the request list, start the default pool, and run
   the fixed warm-up requests (seed-independent, so set-up does the
   same work for every seed). *)
let setup ~jobs ~warmups () =
  let jobs = jobs () in
  let pool = Pool.create () in
  Array.iter (fun w -> ignore (plain w ~pool)) (warmups ());
  { pool; jobs }

(* ---- the timed window ----------------------------------------------- *)

(* [check = false] skips the answer checks (the single-domain replay
   only needs its wall time). *)
let timed_pass ?(check = true) ~pool jobs =
  let k0 = Probe.kernels () in
  let cpu0 = Common.self_cpu () in
  let t0 = Common.now () in
  let raw =
    Array.map
      (fun job ->
        let s = Common.now () in
        let r = plain job ~pool in
        (job, r, Common.now () -. s))
      jobs
  in
  let window = Common.now () -. t0 in
  let cpu = Common.self_cpu () -. cpu0 in
  let k = Probe.kernels_since k0 in
  let answers =
    Array.map
      (fun (job, r, latency) ->
        let verdict =
          if check then job.check r
          else { Verify.sound = true; ok = true; gap = Float.nan; note = "" }
        in
        { Outcome.id = job.jid; latency; verdict })
      raw
  in
  let sum f = Array.fold_left (fun acc (job, r, _) -> acc + f job r) 0 raw in
  let p =
    {
      Outcome.answers;
      window;
      cpu;
      peak_mb = Common.proc_hwm_mb 0;
      counts = [];
    }
  in
  {
    p with
    Outcome.counts =
      [
        ("requests", Array.length jobs);
        ("correct", Outcome.correct p);
        ("sound", Array.length jobs - Outcome.unsound p);
        ("decision_calls", sum (fun j r -> j.calls r));
        ("iterations", sum (fun j r -> j.iters r));
        ("matvecs", k.Probe.matvecs);
        ("taylor_fallbacks", k.Probe.taylor_fallbacks);
      ];
  }

(* ---- the traced pass ------------------------------------------------ *)

type traced = {
  spans : Spans.t;
  trace_wall : float;
  iter_gaps : float array;
  call_gaps : float array;
  degrees : float array;  (** sketched iterations only *)
  useful_calls : int;
  calls : int;
  iterations : int;
  sketched_iterations : int;
  sketched_matvecs : int;
  taylor_fallbacks : int;
  loops : int;
  busy : int;
  answers : int;
  exact_reqs : (string, unit) Hashtbl.t;
}

let traced_pass ~pool jobs =
  let spans = Spans.create () in
  let iter_gaps = ref [] and call_gaps = ref [] and degrees = ref [] in
  let useful = ref 0 and calls = ref 0 and iterations = ref 0 in
  let sk_iters = ref 0 and sk_matvecs = ref 0 in
  let exact_reqs = Hashtbl.create 64 in
  let pool0 = Pool.stats pool in
  let k0 = Probe.kernels () in
  let t0 = Common.now () in
  Array.iter
    (fun job ->
      if job.exact then Hashtbl.replace exact_reqs job.jid ();
      let kj = Probe.kernels () in
      let last_iter = ref Float.nan and last_call = ref Float.nan in
      let prev = ref job.bracket0 in
      let on_iter (st : Decision.iter_stats) =
        let t = Common.now () in
        if Float.is_finite !last_iter then iter_gaps := (t -. !last_iter) :: !iter_gaps;
        last_iter := t;
        incr iterations;
        if not job.exact then begin
          incr sk_iters;
          degrees := float_of_int st.degree :: !degrees
        end
      in
      let on_call ~call:_ ~threshold:_ =
        let t = Common.now () in
        if Float.is_finite !last_call then call_gaps := (t -. !last_call) :: !call_gaps;
        last_call := t
      in
      let checkpoint (s : Solver.bisection_state) =
        incr calls;
        (match !prev with
        | Some (lo, hi) when s.lo > lo || s.hi < hi -> incr useful
        | Some _ -> ()
        | None -> incr useful);
        prev := Some (s.lo, s.hi)
      in
      ignore
        (Spans.wrap spans ~req:job.jid ~parent:(-1) ~name:"request" ~layer:"bench"
           (fun root ->
             let r =
               Spans.wrap spans ~req:job.jid ~parent:root ~name:job.call
                 ~layer:"core" (fun call_id ->
                   Probe.profiled spans ~req:job.jid ~parent:call_id
                     ~exact:job.exact (fun prof ->
                       job.run ~pool ~prof:(Some prof) ~on_iter:(Some on_iter)
                         ~on_call:(Some on_call) ~checkpoint:(Some checkpoint)))
             in
             (* The last decision call ends with the request. *)
             if Float.is_finite !last_call then
               call_gaps := (Common.now () -. !last_call) :: !call_gaps;
             r));
      if job.bracket0 = None then incr calls;
      if not job.exact then
        sk_matvecs := !sk_matvecs + (Probe.kernels_since kj).Probe.matvecs)
    jobs;
  let trace_wall = Common.now () -. t0 in
  let pool1 = Pool.stats pool in
  let k = Probe.kernels_since k0 in
  {
    spans;
    trace_wall;
    iter_gaps = Array.of_list !iter_gaps;
    call_gaps = Array.of_list !call_gaps;
    degrees = Array.of_list !degrees;
    useful_calls = !useful;
    calls = !calls;
    iterations = !iterations;
    sketched_iterations = !sk_iters;
    sketched_matvecs = !sk_matvecs;
    taylor_fallbacks = k.Probe.taylor_fallbacks;
    loops = pool1.parallel_loops - pool0.parallel_loops;
    busy = pool1.busy_fallbacks - pool0.busy_fallbacks;
    answers = Array.length jobs;
    exact_reqs;
  }

(* Per-layer metrics of the in-process workloads. [solve] marks the
   bisection workload (decision-call metrics apply). *)
let layer_metrics ~solve ~speedup (t : traced) =
  let trees = Spans.trees t.spans in
  let exact tr = Hashtbl.mem t.exact_reqs tr.Spans.req in
  let sketched_trees = List.filter (fun tr -> not (exact tr)) trees in
  let exact_trees = List.filter exact trees in
  let named names (s : Spans.span) = List.mem s.name names in
  let n = float_of_int t.answers in
  let m = Outcome.metric in
  [
    m "core.iterations_per_answer" "count" (float_of_int t.iterations /. n);
    m "core.decision_calls_per_answer" "count" (float_of_int t.calls /. n);
    m "core.useful_call_ratio" "ratio"
      (if solve then Common.ratio (float_of_int t.useful_calls) (float_of_int t.calls)
       else 0.0);
    m "core.iteration_s" "s" (Common.median t.iter_gaps);
    m "core.decision_call_s" "s" (if solve then Common.median t.call_gaps else 0.0);
    m "expm.chain_share" "ratio" (Spans.share sketched_trees (named [ "expm" ]));
    m "expm.matvecs_per_iteration" "count"
      (Common.ratio (float_of_int t.sketched_matvecs) (float_of_int t.sketched_iterations));
    m "expm.degree_mean" "count" (Common.mean t.degrees);
    m "expm.taylor_fallbacks" "count" (float_of_int t.taylor_fallbacks);
    m "sparse.gram_share" "ratio" (Spans.share sketched_trees (named [ "gram" ]));
    m "sketch.share" "ratio" (Spans.share trees (named [ "sketch" ]));
    m "linalg.cert_share" "ratio" (Spans.share trees (named [ "cert"; "certify" ]));
    m "linalg.dense_expm_share" "ratio" (Spans.share exact_trees (named [ "expm" ]));
    m "parallel.speedup" "ratio" speedup;
    m "parallel.loops_per_iteration" "count"
      (Common.ratio (float_of_int t.loops) (float_of_int t.iterations));
    m "parallel.busy_fallbacks" "count" (float_of_int t.busy);
  ]
