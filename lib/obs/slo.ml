(* Serve-tier SLOs: a declared latency objective ("99% of requests
   under 500ms"), tracked live as multi-window error-budget burn rates
   and exported as psdp_slo_* series.

   The error budget is the tolerated breach fraction, 1 - objective. A
   window's burn rate is its observed breach fraction divided by that
   budget: burn 1.0 means the budget is being consumed exactly as fast
   as it accrues; burn 10 on a short window plus burn >1 on a long one
   is the classic page-worthy condition. Windows are fixed-width bucket
   rings rotated lazily on observe/read, so an idle tier decays to
   burn 0 without a background thread. *)

open Psdp_prelude

type target = { objective : float; latency : float }

let make_target ~objective ~latency =
  if objective <= 0.0 || objective >= 1.0 then
    invalid_arg "Slo: objective must lie in (0,1)";
  if latency <= 0.0 then invalid_arg "Slo: latency target must be positive";
  { objective; latency }

(* "0.99@0.5" — 99% of requests under 0.5s. *)
let parse_target s =
  match String.split_on_char '@' s with
  | [ obj; lat ] -> (
      match (float_of_string_opt obj, float_of_string_opt lat) with
      | Some objective, Some latency
        when objective > 0.0 && objective < 1.0 && latency > 0.0 ->
          Ok { objective; latency }
      | _ -> Error (Printf.sprintf "bad SLO %S: need OBJ in (0,1), LAT > 0" s))
  | _ -> Error (Printf.sprintf "bad SLO %S: expected OBJECTIVE@LATENCY" s)

let target_to_string t = Printf.sprintf "%g@%g" t.objective t.latency
let budget t = 1.0 -. t.objective

(* ------------------------------------------------------------------ *)
(* Live tracker *)

let default_windows = [ ("5m", 300.0); ("1h", 3600.0) ]
let ring_slots = 60

type window = {
  w_label : string;
  w_span : float;
  w_slot : float;  (* seconds per ring slot *)
  w_reqs : int array;
  w_breaches : int array;
  mutable w_epoch : int;  (* absolute slot index of the current head *)
  w_burn : Metrics.gauge option;
}

type t = {
  tgt : target;
  windows : window list;
  mutable requests : int;
  mutable breaches : int;
  mutex : Mutex.t;
  g_requests : Metrics.counter option;
  g_breaches : Metrics.counter option;
  g_budget : Metrics.gauge option;
}

let create ?registry ?(windows = default_windows) tgt =
  ignore (make_target ~objective:tgt.objective ~latency:tgt.latency);
  let reg = registry in
  Option.iter
    (fun reg ->
      Metrics.set
        (Metrics.gauge reg ~help:"declared SLO latency threshold, seconds"
           "psdp_slo_latency_target_seconds")
        tgt.latency;
      Metrics.set
        (Metrics.gauge reg ~help:"declared SLO objective (fraction in-target)"
           "psdp_slo_objective")
        tgt.objective)
    reg;
  {
    tgt;
    windows =
      List.map
        (fun (label, span) ->
          if span <= 0.0 then invalid_arg "Slo: window span must be positive";
          {
            w_label = label;
            w_span = span;
            w_slot = span /. float_of_int ring_slots;
            w_reqs = Array.make ring_slots 0;
            w_breaches = Array.make ring_slots 0;
            w_epoch = 0;
            w_burn =
              Option.map
                (fun reg ->
                  Metrics.gauge reg
                    ~labels:[ ("window", label) ]
                    ~help:"error-budget burn rate (breach rate / budget)"
                    "psdp_slo_burn_rate")
                reg;
          })
        windows;
    requests = 0;
    breaches = 0;
    mutex = Mutex.create ();
    g_requests =
      Option.map
        (fun reg ->
          Metrics.counter reg ~help:"requests observed against the SLO"
            "psdp_slo_requests_total")
        reg;
    g_breaches =
      Option.map
        (fun reg ->
          Metrics.counter reg ~help:"requests over the SLO latency target"
            "psdp_slo_breaches_total")
        reg;
    g_budget =
      Option.map
        (fun reg ->
          Metrics.gauge reg
            ~help:"cumulative error budget remaining (1 = untouched, <0 = blown)"
            "psdp_slo_error_budget_remaining")
        reg;
  }

(* Advance the ring head to [now], zeroing every slot the head skips
   over. Skipping more than a full revolution clears the ring. *)
let rotate w ~now =
  let slot = int_of_float (Float.max 0.0 now /. w.w_slot) in
  if slot > w.w_epoch then begin
    let gap = min ring_slots (slot - w.w_epoch) in
    for i = 1 to gap do
      let idx = (w.w_epoch + i) mod ring_slots in
      w.w_reqs.(idx) <- 0;
      w.w_breaches.(idx) <- 0
    done;
    w.w_epoch <- slot
  end

let window_counts w =
  ( Array.fold_left ( + ) 0 w.w_reqs,
    Array.fold_left ( + ) 0 w.w_breaches )

let burn_of tgt ~reqs ~breaches =
  if reqs = 0 then 0.0
  else float_of_int breaches /. float_of_int reqs /. budget tgt

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let observe ?now t latency =
  let now = match now with Some n -> n | None -> Timer.now () in
  let breach = latency > t.tgt.latency in
  locked t (fun () ->
      t.requests <- t.requests + 1;
      if breach then t.breaches <- t.breaches + 1;
      List.iter
        (fun w ->
          rotate w ~now;
          let idx = w.w_epoch mod ring_slots in
          w.w_reqs.(idx) <- w.w_reqs.(idx) + 1;
          if breach then w.w_breaches.(idx) <- w.w_breaches.(idx) + 1;
          match w.w_burn with
          | Some g ->
              let reqs, breaches = window_counts w in
              Metrics.set g (burn_of t.tgt ~reqs ~breaches)
          | None -> ())
        t.windows;
      Option.iter Metrics.inc t.g_requests;
      if breach then Option.iter Metrics.inc t.g_breaches;
      match t.g_budget with
      | Some g ->
          let allowed = float_of_int t.requests *. budget t.tgt in
          Metrics.set g
            (if allowed > 0.0 then 1.0 -. (float_of_int t.breaches /. allowed)
             else 1.0)
      | None -> ())

let burn_rate ?now t label =
  let now = match now with Some n -> n | None -> Timer.now () in
  locked t (fun () ->
      match List.find_opt (fun w -> w.w_label = label) t.windows with
      | None -> invalid_arg (Printf.sprintf "Slo: unknown window %S" label)
      | Some w ->
          rotate w ~now;
          let reqs, breaches = window_counts w in
          burn_of t.tgt ~reqs ~breaches)

let requests t = locked t (fun () -> t.requests)
let breaches t = locked t (fun () -> t.breaches)

(* ------------------------------------------------------------------ *)
(* Offline report (from trace streams) *)

type report = {
  r_target : target;
  r_requests : int;
  r_breaches : int;
  r_compliance : float;  (* observed in-target fraction *)
  r_p50 : float;
  r_p95 : float;
  r_p99 : float;
  r_burn : (string * float) list;  (* trailing windows, anchored at t_max *)
  r_budget_consumed : float;  (* breaches / allowed breaches *)
}

let report ?(windows = default_windows) tgt samples =
  let n = List.length samples in
  let breaches =
    List.fold_left
      (fun acc (_, l) -> if l > tgt.latency then acc + 1 else acc)
      0 samples
  in
  let lat = Array.of_list (List.map snd samples) in
  let q p = if lat = [||] then Float.nan else Stats.quantile lat p in
  let t_max = List.fold_left (fun acc (t, _) -> Float.max acc t) 0.0 samples in
  let burn =
    List.map
      (fun (label, span) ->
        let reqs = ref 0 and brs = ref 0 in
        List.iter
          (fun (t, l) ->
            if t > t_max -. span then begin
              incr reqs;
              if l > tgt.latency then incr brs
            end)
          samples;
        (label, burn_of tgt ~reqs:!reqs ~breaches:!brs))
      windows
  in
  {
    r_target = tgt;
    r_requests = n;
    r_breaches = breaches;
    r_compliance =
      (if n = 0 then 1.0
       else 1.0 -. (float_of_int breaches /. float_of_int n));
    r_p50 = q 0.5;
    r_p95 = q 0.95;
    r_p99 = q 0.99;
    r_burn = burn;
    r_budget_consumed =
      (let allowed = float_of_int n *. budget tgt in
       if allowed > 0.0 then float_of_int breaches /. allowed else 0.0);
  }

(* Latency samples from a trace stream, read through Trace_assemble:
   [request] spans carry an admission-to-response latency (the serve
   tier's, or a client's submission-to-result one); batch and worker
   streams have none and fall back to the engine's [exec] spans, so a
   distributed smoke trace still yields a meaningful report. *)
let samples_of_events events =
  let nodes = Trace_assemble.nodes (Trace_assemble.of_events events) in
  let named name =
    List.filter_map
      (fun (n : Trace_assemble.node) ->
        if n.span.name = name then Some (n.span.finish, n.span.dur) else None)
      nodes
  in
  match named "request" with [] -> named "exec" | samples -> samples

let report_of_events ?windows tgt events =
  report ?windows tgt (samples_of_events events)

let report_to_json r =
  Json.Obj
    [
      ("objective", Json.Num r.r_target.objective);
      ("latency_target", Json.Num r.r_target.latency);
      ("requests", Json.Num (float_of_int r.r_requests));
      ("breaches", Json.Num (float_of_int r.r_breaches));
      ("compliance", Json.Num r.r_compliance);
      ("p50", Json.Num r.r_p50);
      ("p95", Json.Num r.r_p95);
      ("p99", Json.Num r.r_p99);
      ("budget_consumed", Json.Num r.r_budget_consumed);
      ( "burn",
        Json.Obj (List.map (fun (w, b) -> (w, Json.Num b)) r.r_burn) );
    ]

let pf = Format.fprintf

let pp_val ppf v = if Float.is_nan v then pf ppf "-" else pf ppf "%.4f" v

let pp_report ppf r =
  pf ppf "@[<v>slo: %.4g%% of requests under %gs@," (100.0 *. r.r_target.objective)
    r.r_target.latency;
  pf ppf "  requests %d, breaches %d, compliance %.4f (budget consumed %.2f)@,"
    r.r_requests r.r_breaches r.r_compliance r.r_budget_consumed;
  pf ppf "  latency p50 %a  p95 %a  p99 %a@," pp_val r.r_p50 pp_val r.r_p95
    pp_val r.r_p99;
  pf ppf "  burn rates:";
  List.iter (fun (w, b) -> pf ppf " %s=%.3f" w b) r.r_burn;
  pf ppf "@,@]"
