(* Layer-budget check: for one traced request of each workload, the
   self times of the request's spans — the benchmark's own spans around
   the public calls it makes plus the program's spans it reads through
   Probe — must sum to the request's wall time. A child that overruns
   its parent (spans that do not nest, or clocks that disagree across
   processes) shows up as a sum above the wall time.

   Tolerance: 5% of the request's wall time. *)

open Psdpbench

let tolerance = 0.05

(* dune runs the test in _build/default/perfbench/test. *)
let cli = Filename.concat (Sys.getcwd ()) "../../bin/psdp_cli.exe"

let check_tree (tr : Spans.tree) =
  let sum = Spans.self_sum tr in
  if tr.wall <= 0.0 then Alcotest.failf "%s: empty request" tr.req;
  let excess = Float.abs (sum -. tr.wall) /. tr.wall in
  if excess > tolerance then
    Alcotest.failf "%s: self times sum to %.6f s, wall %.6f s (off by %.1f%%)"
      tr.req sum tr.wall (100.0 *. excess);
  let layers =
    List.sort_uniq compare
      (List.map (fun ((s : Spans.span), _) -> s.layer) tr.selfs)
  in
  (* The request must reach below the benchmark's own span. *)
  if List.length layers < 2 then
    Alcotest.failf "%s: no layer below the request span" tr.req

let check_spans spans =
  match Spans.trees spans with
  | [] -> Alcotest.fail "no traced request"
  | trees -> List.iter check_tree trees

(* Each case runs in a scratch directory of its own under the test's
   working directory. *)
let in_dir name f =
  let dir = Filename.concat (Sys.getcwd ()) (Printf.sprintf "budget-%s-%d" name (Unix.getpid ())) in
  Common.rm_rf dir;
  Common.mkdir_p dir;
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      Common.rm_rf dir)
    f

let inproc job () =
  Psdp_parallel.Pool.with_pool (fun pool ->
      let tr = Wl_inproc.traced_pass ~pool [| job |] in
      check_spans tr.spans)

let solve_small =
  (* cell 16: beamforming, sketched backend with automatic rows *)
  inproc (Wl_inproc.solve_job (Requests.solve_request 16))

let decide_large =
  (* the set-up warm-up decision: m = 192, 16 sketch rows, a low
     threshold so the call stays short *)
  inproc (Wl_inproc.decide_job (Requests.decide_warmups ()).(0))

let serve_lineage () =
  in_dir "serve" (fun () ->
      let sys = Wl_serve.setup ~seed:1 ~n:1 ~dir:"lineage" in
      let w =
        Fun.protect
          ~finally:(fun () -> Wl_serve.teardown sys)
          (fun () -> Wl_serve.run_window sys)
      in
      check_spans (Wl_serve.request_spans sys w))

let cluster_repeat () =
  in_dir "cluster" (fun () ->
      let c = Wl_cluster.setup ~cli ~seed:1 ~traced:true ~dir:"cluster" in
      let w =
        match Wl_cluster.run_window c ~n:1 with
        | w ->
            Wl_cluster.teardown c;
            w
        | exception e ->
            Wl_cluster.abort c;
            raise e
      in
      let spans, _ = Wl_cluster.request_spans c w in
      check_spans spans)

let () =
  Alcotest.run "perfbench"
    [
      ( "layer budget",
        [
          Alcotest.test_case "solve-small" `Quick solve_small;
          Alcotest.test_case "decide-large" `Quick decide_large;
          Alcotest.test_case "serve-lineage" `Quick serve_lineage;
          Alcotest.test_case "cluster-repeat" `Quick cluster_repeat;
        ] );
    ]
