(* Tests for the online serving subsystem: the degradation ladder, SLA
   admission control (shed vs served, exactly one response per submit),
   load-adaptive ε-degradation with every degraded answer certified at
   its served ε, warm-start lineage (parent resolution, ε-ordering in the
   cache, corrupted-incumbent safety) and lineage provenance surviving
   the journal through recovery. *)

open Psdp_prelude
open Psdp_core
open Psdp_instances
open Psdp_store
open Psdp_engine
module Degrade = Psdp_fault.Degrade
module Serve = Psdp_serve.Serve

let ok_or_fail what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" what msg

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Degradation ladder *)

let test_degrade_validation () =
  let bad pairs =
    match Degrade.make pairs with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "non-increasing thresholds rejected" true
    (bad [ (4, 1.5); (4, 2.0) ]);
  Alcotest.(check bool) "decreasing thresholds rejected" true
    (bad [ (8, 1.5); (4, 2.0) ]);
  Alcotest.(check bool) "factor below 1 rejected" true (bad [ (4, 0.5) ]);
  Alcotest.(check bool) "decreasing factors rejected" true
    (bad [ (4, 2.0); (8, 1.5) ]);
  Alcotest.(check bool) "non-positive threshold rejected" true
    (bad [ (0, 1.5) ]);
  Alcotest.(check bool) "bad cap rejected" true
    (match Degrade.make ~cap:0.0 [ (4, 1.5) ] with
    | Ok _ -> false
    | Error _ -> true);
  Alcotest.(check bool) "valid ladder accepted" true
    (match Degrade.make ~cap:0.5 [ (4, 1.5); (8, 2.0) ] with
    | Ok _ -> true
    | Error _ -> false)

let test_degrade_apply_bounded () =
  let d = ok_or_fail "make" (Degrade.make ~cap:0.5 [ (4, 1.5); (8, 2.0) ]) in
  let check_apply name ~load v (exp_v, exp_level) =
    let v', level = Degrade.apply d ~load v in
    Alcotest.(check (float 1e-12)) (name ^ " value") exp_v v';
    Alcotest.(check int) (name ^ " level") exp_level level
  in
  check_apply "below first rung" ~load:3 0.2 (0.2, 0);
  check_apply "first rung" ~load:4 0.2 (0.3, 1);
  check_apply "second rung" ~load:8 0.2 (0.4, 2);
  (* 0.3 * 2 = 0.6 exceeds the cap: clamped, never outside the
     certified operating envelope. *)
  check_apply "cap clamps" ~load:100 0.3 (0.5, 2);
  (* An already-coarse request is never refined below itself. *)
  check_apply "never refines" ~load:100 0.7 (0.7, 2);
  let v', level = Degrade.apply Degrade.none ~load:1000 0.2 in
  Alcotest.(check (float 0.0)) "none never degrades" 0.2 v';
  Alcotest.(check int) "none level 0" 0 level

let test_degrade_parse_roundtrip () =
  List.iter
    (fun s ->
      let d = ok_or_fail ("parse " ^ s) (Degrade.parse s) in
      let d' =
        ok_or_fail ("reparse " ^ s) (Degrade.parse (Degrade.to_string d))
      in
      Alcotest.(check string)
        ("canonical fixed point of " ^ s)
        (Degrade.to_string d) (Degrade.to_string d'))
    [ "4:1.5,8:2@cap=0.5"; "2:3"; "none"; "" ];
  Alcotest.(check string) "empty parses to none" "none"
    (Degrade.to_string (ok_or_fail "parse empty" (Degrade.parse "")));
  Alcotest.(check bool) "garbage rejected" true
    (match Degrade.parse "not-a-ladder" with Ok _ -> false | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Cache: ε-ordering of warm-start sources *)

let entry ?(digest = "d0") ?(eps = 0.5) ?(backend = "exact")
    ?(mode = "adaptive:10") ?(value = 2.0) ?(upper = 2.5)
    ?(x = [| 1.0; 1.0 |]) () =
  {
    Cache.digest;
    eps;
    backend;
    mode;
    value;
    upper_bound = upper;
    x;
    decision_calls = 3;
    iterations = 42;
  }

let test_cache_find_warm_eps_ordering () =
  let c = Cache.create () in
  Cache.store c (entry ~eps:0.5 ~value:2.0 ~upper:3.0 ());
  Cache.store c (entry ~eps:0.3 ~value:2.1 ~upper:2.4 ());
  Cache.store c (entry ~eps:0.1 ~value:2.2 ~upper:2.35 ());
  let warm_at eps =
    match
      Cache.find_warm ~eps c ~digest:"d0" ~backend:"exact" ~mode:"adaptive:10"
    with
    | Some e -> e.Cache.eps
    | None -> Alcotest.fail "expected warm entry"
  in
  (* Closest ε wins: a same-regime incumbent beats a tighter-but-distant
     one (the tightest entry is NOT the best seed for a coarse solve). *)
  Alcotest.(check (float 0.0)) "coarse request picks coarse entry" 0.5
    (warm_at 0.6);
  Alcotest.(check (float 0.0)) "mid request picks mid entry" 0.3
    (warm_at 0.32);
  Alcotest.(check (float 0.0)) "fine request picks fine entry" 0.1
    (warm_at 0.05);
  (* Exactly equidistant ε (binary-representable quarters, so the
     distances really are equal): the tightness order (smaller upper
     bound) breaks the tie. *)
  let tie = Cache.create () in
  Cache.store tie (entry ~eps:0.25 ~value:2.0 ~upper:3.0 ());
  Cache.store tie (entry ~eps:0.75 ~value:2.1 ~upper:2.4 ());
  (match
     Cache.find_warm ~eps:0.5 tie ~digest:"d0" ~backend:"exact"
       ~mode:"adaptive:10"
   with
  | Some e ->
      Alcotest.(check (float 0.0)) "tie broken toward tighter" 0.75 e.Cache.eps
  | None -> Alcotest.fail "expected warm entry");
  (* Without eps the tightest-upper entry wins, as before. *)
  match Cache.find_warm c ~digest:"d0" ~backend:"exact" ~mode:"adaptive:10" with
  | Some e -> Alcotest.(check (float 0.0)) "no-eps: tightest" 0.1 e.Cache.eps
  | None -> Alcotest.fail "expected warm entry"

let test_cache_export_metrics () =
  let reg = Psdp_obs.Metrics.create () in
  let c = Cache.create () in
  Cache.store c (entry ());
  ignore (Cache.find c ~digest:"d0" ~eps:0.5 ~backend:"exact" ~mode:"adaptive:10");
  ignore (Cache.find c ~digest:"zz" ~eps:0.5 ~backend:"exact" ~mode:"adaptive:10");
  Cache.export_metrics reg c;
  (* Sampling again must find the same series (idempotent), not raise. *)
  Cache.export_metrics reg c;
  let text = Psdp_obs.Metrics.render reg in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " exported") true
        (contains_sub text needle))
    [
      "psdp_cache_hits 1";
      "psdp_cache_misses 1";
      "psdp_cache_size 1";
      "psdp_cache_stores 1";
    ]

(* ------------------------------------------------------------------ *)
(* Serve tier: admission, shedding, degradation *)

let diag () = fst (Diagonal.scaled_identities [| 0.5; 1.0; 2.0 |] ~dim:5)

let solve ?id ?(eps = 0.5) ?parent inst =
  Job.solve_spec ?id ~eps ?parent (Job.Inline inst)

let make_serve ?metrics ?(paused = false) cfg =
  let responses = ref [] in
  let mu = Mutex.create () in
  let on_response r =
    Mutex.lock mu;
    responses := r :: !responses;
    Mutex.unlock mu
  in
  let serve =
    Serve.create ?metrics cfg
      ~make_engine:(fun ~on_complete ->
        Engine.create ~pool:Psdp_parallel.Pool.sequential ~max_in_flight:1
          ~paused ~on_complete ())
      ~on_response ()
  in
  (serve, fun () -> List.rev !responses)

let test_serve_queue_full_shed () =
  let serve, responses =
    make_serve ~paused:true
      { Serve.default_config with Serve.queue_cap = 2 }
  in
  Serve.submit serve (solve ~id:"a" (diag ()));
  Serve.submit serve (solve ~id:"b" (diag ()));
  Alcotest.(check int) "queue at cap" 2 (Serve.depth serve);
  Serve.submit serve (solve ~id:"c" (diag ()));
  (* The shed is synchronous: the response is already there. *)
  let sheds = responses () in
  Alcotest.(check int) "one immediate response" 1 (List.length sheds);
  (match sheds with
  | [ { Serve.id = "c"; outcome = Serve.Rejected Serve.Queue_full; _ } ] -> ()
  | _ -> Alcotest.fail "expected c shed with queue_full");
  Engine.resume (Serve.engine serve);
  Serve.shutdown serve;
  let all = responses () in
  Alcotest.(check int) "exactly one response per submit" 3 (List.length all);
  let done_ids =
    List.filter_map
      (fun (r : Serve.response) ->
        match r.Serve.outcome with
        | Serve.Done result ->
            (match result.Job.outcome with
            | Job.Solved s ->
                Alcotest.(check bool) (r.Serve.id ^ " certified") true
                  s.certified
            | o ->
                Alcotest.failf "%s: expected Solved, got %s" r.Serve.id
                  (match o with
                  | Job.Failed m -> "Failed: " ^ m
                  | Job.Cancelled -> "Cancelled"
                  | Job.Timed_out -> "Timed_out"
                  | Job.Decided _ -> "Decided"
                  | Job.Solved _ -> assert false));
            Some r.Serve.id
        | Serve.Rejected _ -> None)
      all
  in
  Alcotest.(check (list string)) "admitted jobs served" [ "a"; "b" ] done_ids;
  (* After shutdown every submit sheds as stopped. *)
  Serve.submit serve (solve ~id:"late" (diag ()));
  match List.rev (responses ()) with
  | { Serve.id = "late"; outcome = Serve.Rejected Serve.Stopped; _ } :: _ -> ()
  | _ -> Alcotest.fail "expected late shed as stopped"

let test_serve_degradation_certified () =
  let degrade = ok_or_fail "make" (Degrade.make ~cap:0.5 [ (2, 2.0) ]) in
  let metrics = Psdp_obs.Metrics.create () in
  let serve, responses =
    make_serve ~metrics ~paused:true
      { Serve.queue_cap = 8; default_deadline = None; degrade }
  in
  (* Paused engine: submissions stack, so the post-admission depths are
     exactly 1, 2, 3 — the second and third land on the rung. *)
  Serve.submit serve (solve ~id:"d1" ~eps:0.2 (diag ()));
  Serve.submit serve (solve ~id:"d2" ~eps:0.2 (diag ()));
  Serve.submit serve (solve ~id:"d3" ~eps:0.2 (diag ()));
  Engine.resume (Serve.engine serve);
  Serve.shutdown serve;
  let all = responses () in
  Alcotest.(check int) "three responses" 3 (List.length all);
  let by_id id =
    List.find (fun (r : Serve.response) -> r.Serve.id = id) all
  in
  let check_served id ~eps ~level =
    let r = by_id id in
    Alcotest.(check (float 1e-12)) (id ^ " requested") 0.2
      r.Serve.requested_eps;
    Alcotest.(check (float 1e-12)) (id ^ " served") eps r.Serve.served_eps;
    Alcotest.(check int) (id ^ " level") level r.Serve.degrade_level;
    Alcotest.(check bool) (id ^ " latency measured") true
      (r.Serve.latency > 0.0);
    match r.Serve.outcome with
    | Serve.Done { Job.outcome = Job.Solved s; _ } ->
        (* The certificate covers the ε actually served: the bracket
           must close at (1+served) — a degraded answer is a certified
           answer to the coarser question. *)
        Alcotest.(check bool) (id ^ " certified") true s.certified;
        Alcotest.(check bool) (id ^ " bracket closes at served eps") true
          (s.upper_bound <= ((1.0 +. eps) *. s.value) +. 1e-9)
    | _ -> Alcotest.failf "%s: expected Solved" id
  in
  check_served "d1" ~eps:0.2 ~level:0;
  check_served "d2" ~eps:0.4 ~level:1;
  check_served "d3" ~eps:0.4 ~level:1;
  let text = Psdp_obs.Metrics.render metrics in
  let has needle = contains_sub text needle in
  Alcotest.(check bool) "degraded counter" true
    (has "psdp_serve_degraded_total 2");
  Alcotest.(check bool) "admitted counter" true
    (has "psdp_serve_admitted_total 3");
  Alcotest.(check bool) "cache gauges sampled" true (has "psdp_cache_")

(* ------------------------------------------------------------------ *)
(* Warm-start lineage through the serve/engine path *)

let parent_inst () = Random_psd.factored ~rng:(Rng.create 11) ~dim:8 ~n:4 ()

let drifted_child () =
  let rng = Rng.create 11 in
  let parent = Random_psd.factored ~rng ~dim:8 ~n:4 () in
  Drift.perturb ~rng ~magnitude:0.05 parent

(* A copy of [Job.Solved]'s inline record that can leave the match. *)
type solve_facts = {
  value : float;
  upper_bound : float;
  iterations : int;
  cache : Job.cache_status;
  certified : bool;
}

let solved_of (r : Job.result) =
  match r.Job.outcome with
  | Job.Solved { value; upper_bound; iterations; cache; certified; _ } ->
      { value; upper_bound; iterations; cache; certified }
  | _ -> Alcotest.failf "job %s: expected Solved" r.Job.id

let test_serve_parent_lineage () =
  let eps = 0.3 in
  let rng = Rng.create 11 in
  let parent = Random_psd.factored ~rng ~dim:8 ~n:4 () in
  (* Two independent small drifts of the same parent: solving the same
     child twice would exact-hit the result cache on the second solve,
     so the warm/cold comparison runs on siblings. *)
  let child_warm = Drift.perturb ~rng ~magnitude:0.05 parent in
  let child_cold = Drift.perturb ~rng ~magnitude:0.05 parent in
  let parent_digest = Loader.digest parent in
  Engine.with_engine ~pool:Psdp_parallel.Pool.sequential ~max_in_flight:1
    (fun eng ->
      let pr =
        Engine.await eng
          (Engine.submit eng (solve ~id:"parent" ~eps parent))
      in
      Alcotest.(check bool) "parent certified" true (solved_of pr).certified;
      let warm =
        Engine.await eng
          (Engine.submit eng
             (solve ~id:"warm" ~eps ~parent:parent_digest child_warm))
      in
      let cold =
        Engine.await eng
          (Engine.submit eng (solve ~id:"cold" ~eps child_cold))
      in
      let sc = solved_of cold and sw = solved_of warm in
      Alcotest.(check bool) "cold was a miss" true (sc.cache = Job.Miss);
      Alcotest.(check bool) "warm start resolved through parent" true
        (sw.cache = Job.Parent);
      Alcotest.(check bool) "warm certified" true sw.certified;
      (* The tentpole's reason to exist: the lineage warm start must
         measurably reduce iterations on the drifted re-solve. *)
      Alcotest.(check bool)
        (Printf.sprintf "warm %d iters < cold %d iters" sw.iterations
           sc.iterations)
        true
        (sw.iterations < sc.iterations);
      (* Sibling drifts of one parent: certified brackets stay in the
         same neighbourhood. *)
      Alcotest.(check bool) "brackets intersect" true
        (Float.max sc.value sw.value
        <= (Float.min sc.upper_bound sw.upper_bound *. 1.05) +. 1e-9))

let test_serve_unknown_parent_falls_back_cold () =
  let child = drifted_child () in
  Engine.with_engine ~pool:Psdp_parallel.Pool.sequential ~max_in_flight:1
    (fun eng ->
      let r =
        Engine.await eng
          (Engine.submit eng
             (solve ~id:"orphan" ~eps:0.3 ~parent:"no-such-digest" child))
      in
      let s = solved_of r in
      Alcotest.(check bool) "unknown parent: cold miss" true
        (s.cache = Job.Miss);
      Alcotest.(check bool) "still certified" true s.certified)

let test_serve_corrupt_parent_incumbent () =
  let eps = 0.3 in
  let parent = parent_inst () in
  let child = drifted_child () in
  let parent_digest = Loader.digest parent in
  let n = Instance.num_constraints child in
  (* A parent entry whose incumbent is garbage of the right length:
     adoption must re-verify (rescale to feasibility), so the answer
     stays certified — corruption can cost iterations, never
     soundness. *)
  let poisoned = Cache.create () in
  Cache.store poisoned
    (entry ~digest:parent_digest ~eps ~value:1e6 ~upper:1e7
       ~x:(Array.make n 1e6) ());
  Engine.with_engine ~pool:Psdp_parallel.Pool.sequential ~max_in_flight:1
    ~cache:poisoned (fun eng ->
      let r =
        Engine.await eng
          (Engine.submit eng
             (solve ~id:"poisoned" ~eps ~parent:parent_digest child))
      in
      let s = solved_of r in
      Alcotest.(check bool) "poisoned incumbent adopted via parent path" true
        (s.cache = Job.Parent);
      Alcotest.(check bool) "re-verification kept it certified" true
        s.certified;
      Alcotest.(check bool) "bracket closes" true
        (s.upper_bound <= ((1.0 +. eps) *. s.value) +. 1e-9));
  (* Wrong-length incumbent: the execution layer's shape guard must
     reject it before the solver ever sees it — a cold miss, not a
     crash. *)
  let short = Cache.create () in
  Cache.store short
    (entry ~digest:parent_digest ~eps ~x:(Array.make (n + 3) 0.5) ());
  Engine.with_engine ~pool:Psdp_parallel.Pool.sequential ~max_in_flight:1
    ~cache:short (fun eng ->
      let r =
        Engine.await eng
          (Engine.submit eng
             (solve ~id:"short" ~eps ~parent:parent_digest child))
      in
      let s = solved_of r in
      Alcotest.(check bool) "shape-mismatched parent ignored" true
        (s.cache = Job.Miss);
      Alcotest.(check bool) "still certified" true s.certified)

(* ------------------------------------------------------------------ *)
(* Lineage provenance: journal round-trip and recovery *)

let mktempdir () =
  let path = Filename.temp_file "psdp_serve" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun nm -> rm_rf (Filename.concat path nm)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tempdir f =
  let dir = mktempdir () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with _ -> ()) (fun () -> f dir)

let roundtrip what (spec : Job.spec) =
  match Job.spec_to_json spec with
  | Error msg -> Alcotest.failf "%s: no JSON form: %s" what msg
  | Ok json -> (
      match Job.spec_of_json json with
      | Ok spec' -> spec'
      | Error msg -> Alcotest.failf "%s did not round-trip: %s" what msg)

let test_spec_parent_json_roundtrip () =
  let spec =
    Job.solve_spec ~id:"child" ~eps:0.25 ~parent:"abcd1234"
      (Job.File "child.inst")
  in
  Alcotest.(check (option string)) "parent survives the codec"
    (Some "abcd1234")
    (roundtrip "parented spec" spec).Job.parent;
  let bare = Job.solve_spec ~id:"bare" ~eps:0.25 (Job.File "bare.inst") in
  Alcotest.(check (option string)) "absent parent stays absent" None
    (roundtrip "bare spec" bare).Job.parent

let test_lineage_survives_reopen () =
  with_tempdir (fun dir ->
      let store = ok_or_fail "open" (Store.open_store dir) in
      Engine.with_engine ~pool:Psdp_parallel.Pool.sequential ~max_in_flight:1
        ~store (fun eng ->
          let parent = parent_inst () in
          let pr =
            Engine.await eng
              (Engine.submit eng (solve ~id:"ancestor" ~eps:0.3 parent))
          in
          Alcotest.(check bool) "parent solved" true (solved_of pr).certified;
          let child = drifted_child () in
          ignore
            (Engine.await eng
               (Engine.submit eng
                  (solve ~id:"descendant" ~eps:0.3
                     ~parent:(Loader.digest parent) child))));
      Store.close store;
      (* A fresh process over the same store sees the full ancestry. *)
      let store = ok_or_fail "reopen" (Store.open_store dir) in
      Fun.protect
        ~finally:(fun () -> Store.close store)
        (fun () ->
          let parent = parent_inst () in
          Alcotest.(check (list (pair string string)))
            "lineage replayed from the journal"
            [ ("descendant", Loader.digest parent) ]
            (Store.lineage store)))

let test_lineage_survives_recover () =
  with_tempdir (fun dir ->
      let eps = 0.3 in
      let parent = parent_inst () in
      let child = drifted_child () in
      let parent_digest = Loader.digest parent in
      let pr = Solver.solve_packing ~eps parent in
      (* A journal holding an interrupted parent-declaring job, as a
         crashed serve process leaves behind. Inline sources have no
         JSON form, so the journaled spec points at a file — exactly
         what a production serve job looks like. *)
      let child_file = Filename.concat dir "child.inst" in
      Loader.save child_file child;
      let spec =
        Job.solve_spec ~id:"orphaned" ~eps ~parent:parent_digest
          (Job.File child_file)
      in
      let spec_json =
        ok_or_fail "spec to json" (Job.spec_to_json spec)
      in
      let store = ok_or_fail "open" (Store.open_store dir) in
      Store.append store
        (Journal.Submitted { job = "orphaned"; spec = spec_json });
      Store.append store
        (Journal.Lineage { job = "orphaned"; parent = parent_digest });
      Store.close store;
      (* Recovery in a fresh engine whose cache knows the ancestor: the
         replayed spec must still carry the parent and warm-start from
         it. *)
      let cache = Cache.create () in
      Cache.store cache
        (entry ~digest:parent_digest ~eps ~value:pr.Solver.value
           ~upper:pr.Solver.upper_bound ~x:pr.Solver.x ());
      let store = ok_or_fail "reopen" (Store.open_store dir) in
      Alcotest.(check (list (pair string string)))
        "lineage known before recovery"
        [ ("orphaned", parent_digest) ]
        (Store.lineage store);
      let results =
        Fun.protect
          ~finally:(fun () -> Store.close store)
          (fun () ->
            Engine.with_engine ~pool:Psdp_parallel.Pool.sequential
              ~max_in_flight:1 ~store ~cache (fun eng ->
                let handles = Engine.recover eng in
                Alcotest.(check int) "one job recovered" 1
                  (List.length handles);
                List.map (Engine.await eng) handles))
      in
      let s = solved_of (List.hd results) in
      Alcotest.(check bool) "recovered job warm-started from its parent"
        true
        (s.cache = Job.Parent);
      Alcotest.(check bool) "recovered solve certified" true s.certified)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "degrade",
        [
          Alcotest.test_case "validation" `Quick test_degrade_validation;
          Alcotest.test_case "apply bounded" `Quick test_degrade_apply_bounded;
          Alcotest.test_case "parse round-trip" `Quick
            test_degrade_parse_roundtrip;
        ] );
      ( "cache",
        [
          Alcotest.test_case "find_warm eps ordering" `Quick
            test_cache_find_warm_eps_ordering;
          Alcotest.test_case "export metrics" `Quick test_cache_export_metrics;
        ] );
      ( "admission",
        [
          Alcotest.test_case "queue-full shed" `Quick test_serve_queue_full_shed;
          Alcotest.test_case "degradation certified" `Quick
            test_serve_degradation_certified;
        ] );
      ( "lineage",
        [
          Alcotest.test_case "parent warm start" `Quick
            test_serve_parent_lineage;
          Alcotest.test_case "unknown parent" `Quick
            test_serve_unknown_parent_falls_back_cold;
          Alcotest.test_case "corrupt incumbent" `Quick
            test_serve_corrupt_parent_incumbent;
          Alcotest.test_case "spec JSON round-trip" `Quick
            test_spec_parent_json_roundtrip;
          Alcotest.test_case "survives reopen" `Quick
            test_lineage_survives_reopen;
          Alcotest.test_case "survives recover" `Quick
            test_lineage_survives_recover;
        ] );
    ]
