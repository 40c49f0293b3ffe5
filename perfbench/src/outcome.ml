(* What one timed pass over a request list produced, and the end-to-end
   metrics derived from it. *)

type answer = {
  id : string;
  latency : float;  (** seconds; infinity when no answer arrived *)
  verdict : Verify.verdict;
}

type pass = {
  answers : answer array;  (** request order *)
  window : float;  (** first request sent → last answer received *)
  cpu : float;  (** user+system CPU of every workload process in the window *)
  peak_mb : float;  (** highest VmHWM among the workload's processes *)
  counts : (string * int) list;  (** exact for fixed inputs: the guard's key *)
}

let correct p =
  Array.fold_left (fun acc a -> if a.verdict.Verify.ok then acc + 1 else acc) 0 p.answers

let unsound p =
  Array.fold_left
    (fun acc a -> if a.verdict.Verify.sound then acc else acc + 1)
    0 p.answers

let misses p =
  Array.to_list p.answers
  |> List.filter (fun a -> not a.verdict.Verify.ok)
  |> List.map (fun a -> (a.id, a.verdict.Verify.note))

type metric = { name : string; value : float; unit_ : string }

(* A value that could not be measured (no answer arrived) reads 0; the
   run's result line is then marked incorrect. *)
let metric name unit_ value =
  { name; value = (if Float.is_finite value then value else 0.0); unit_ }

let end_to_end ~setup_s p =
  let n = Array.length p.answers in
  let ok = correct p in
  let lat = Array.map (fun a -> a.latency) p.answers in
  let gaps =
    Array.of_list
      (List.filter Float.is_finite
         (Array.to_list (Array.map (fun a -> a.verdict.Verify.gap) p.answers)))
  in
  [
    metric "setup_s" "s" setup_s;
    metric "throughput_per_s" "1/s" (Common.ratio (float_of_int ok) p.window);
    metric "latency_p50_s" "s" (Common.median lat);
    metric "latency_tail_s" "s" (Common.tail lat);
    metric "ok_ratio" "ratio" (Common.ratio (float_of_int ok) (float_of_int n));
    metric "gap_mean" "ratio" (Common.mean gaps);
    metric "cpu_s_per_answer" "s" (Common.ratio p.cpu (float_of_int ok));
    metric "peak_rss_mb" "MB" p.peak_mb;
  ]
