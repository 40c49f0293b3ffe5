(* lib/qa — the property-based conformance subsystem itself.

   Covers: spec codec/sampling/shrinking, the differential and
   metamorphic oracles on representative instances, the failure corpus,
   bounded fuzz campaigns with metrics export, the malformed-instance
   corpus against every Loader validation path (library level and CLI
   exit code), and the end-to-end self-test from ISSUE acceptance: a
   seeded failpoint corrupting one solver backend must be caught by the
   differential oracle, shrunk, persisted, and reproduced byte-for-byte
   by the printed replay command. *)

open Psdp_prelude
open Psdp_qa
module Metrics = Psdp_obs.Metrics

let cli = "../bin/psdp_cli.exe"

let run_cli ?stdout args =
  let null = "/dev/null" in
  Sys.command
    (Filename.quote_command cli ~stdout:(Option.value stdout ~default:null)
       ~stderr:null args)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let is_prefix ~affix s =
  String.length s >= String.length affix
  && String.sub s 0 (String.length affix) = affix

let spec_eq : Spec.t Alcotest.testable =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Spec.to_string s))
    ( = )

(* ------------------------------------------------------------------ *)
(* Spec *)

let sample_specs count =
  let rng = Rng.create 0x5eed in
  List.init count (fun _ -> Spec.sample rng)

let test_spec_json_roundtrip () =
  List.iter
    (fun s ->
      match Spec.of_json (Spec.to_json s) with
      | Ok s' -> Alcotest.check spec_eq (Spec.to_string s) s s'
      | Error msg -> Alcotest.failf "%s: %s" (Spec.to_string s) msg)
    (sample_specs 100)

let test_spec_validate_rejects () =
  let bad =
    [
      { Spec.family = Spec.Graph_cycle; dim = 2; n = 2; seed = 1 };
      { Spec.family = Spec.Known_projectors; dim = 2; n = 5; seed = 1 };
      { Spec.family = Spec.Diagonal { density = 0.0 }; dim = 2; n = 1; seed = 1 };
      { Spec.family = Spec.Conditioned { cond = 0.5 }; dim = 2; n = 1; seed = 1 };
      {
        Spec.family = Spec.Random { rank = 0; density = 0.5; spread = 1.0 };
        dim = 2;
        n = 1;
        seed = 1;
      };
      { Spec.family = Spec.Diagonal_identities; dim = 0; n = 1; seed = 1 };
    ]
  in
  List.iter
    (fun s ->
      match Spec.validate s with
      | Ok _ -> Alcotest.failf "accepted %s" (Spec.to_string s)
      | Error _ -> ())
    bad

let test_spec_build_deterministic () =
  List.iter
    (fun s ->
      let i1, o1 = Spec.build s in
      let i2, o2 = Spec.build s in
      Alcotest.(check (option (float 0.0)))
        (Spec.to_string s ^ " opt") o1 o2;
      Alcotest.(check string)
        (Spec.to_string s ^ " digest")
        (Psdp_instances.Loader.digest i1)
        (Psdp_instances.Loader.digest i2))
    (sample_specs 25)

let test_spec_shrink_well_founded () =
  (* Every shrink candidate is valid and strictly smaller, so greedy
     shrinking terminates from any sampled start. *)
  List.iter
    (fun s ->
      let rec descend s steps =
        if steps > 200 then
          Alcotest.failf "shrink of %s did not terminate" (Spec.to_string s);
        List.iter
          (fun c ->
            (match Spec.validate c with
            | Ok c' -> Alcotest.check spec_eq "validate is identity" c c'
            | Error msg ->
                Alcotest.failf "invalid shrink %s: %s" (Spec.to_string c) msg);
            if Spec.size c >= Spec.size s then
              Alcotest.failf "shrink did not shrink: %s -> %s"
                (Spec.to_string s) (Spec.to_string c))
          (Spec.shrink s);
        match Spec.shrink s with
        | [] -> ()
        | c :: _ -> descend c (steps + 1)
      in
      descend s 0)
    (sample_specs 50)

(* ------------------------------------------------------------------ *)
(* Oracles on representative specs *)

let oracle_smoke name spec () =
  let spec =
    match Spec.validate spec with
    | Ok s -> s
    | Error msg -> Alcotest.failf "bad smoke spec: %s" msg
  in
  List.iter
    (fun (p : Property.t) ->
      if p.Property.applies spec then
        match p.Property.check spec with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s on %s: %s" p.Property.name name msg)
    Property.all

let smoke_identities =
  oracle_smoke "identities"
    { Spec.family = Spec.Diagonal_identities; dim = 3; n = 3; seed = 5 }

let smoke_cycle =
  oracle_smoke "cycle" { Spec.family = Spec.Graph_cycle; dim = 3; n = 3; seed = 5 }

let smoke_random =
  oracle_smoke "random"
    {
      Spec.family = Spec.Random { rank = 1; density = 1.0; spread = 1.0 };
      dim = 3;
      n = 2;
      seed = 5;
    }

(* ------------------------------------------------------------------ *)
(* Corpus *)

let temp_corpus () =
  let path = Filename.temp_file "psdp-qa-corpus" ".jsonl" in
  Sys.remove path;
  path

let test_corpus_roundtrip () =
  let path = temp_corpus () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  Alcotest.(check (list reject)) "missing file loads empty" []
    (Result.get_ok (Corpus.load path));
  let specs = sample_specs 5 in
  let entries =
    List.mapi
      (fun i spec ->
        Corpus.make ~prop:"backends_agree" ~spec
          ~failpoints:(if i mod 2 = 0 then [ "evaluator.dots.exact=corrupt" ] else [])
          ~message:(Printf.sprintf "message %d\nwith newline" i)
          ~shrink_steps:i)
      specs
  in
  List.iter (Corpus.append path) entries;
  match Corpus.load path with
  | Error msg -> Alcotest.fail msg
  | Ok loaded ->
      Alcotest.(check int) "count" (List.length entries) (List.length loaded);
      List.iter2
        (fun (a : Corpus.entry) (b : Corpus.entry) ->
          Alcotest.(check string) "id" a.Corpus.id b.Corpus.id;
          Alcotest.check spec_eq "spec" a.Corpus.spec b.Corpus.spec;
          Alcotest.(check (list string)) "failpoints" a.Corpus.failpoints
            b.Corpus.failpoints;
          Alcotest.(check string) "message" a.Corpus.message b.Corpus.message)
        entries loaded;
      let first = List.hd entries in
      (match Corpus.find ~entries:loaded (String.sub first.Corpus.id 0 6) with
      | Some e -> Alcotest.(check string) "prefix find" first.Corpus.id e.Corpus.id
      | None -> Alcotest.fail "prefix lookup failed");
      Alcotest.(check bool) "short prefix rejected" true
        (Corpus.find ~entries:loaded (String.sub first.Corpus.id 0 2) = None)

let test_corpus_rejects_malformed () =
  let path = temp_corpus () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let oc = open_out path in
  output_string oc "{\"id\":\"x\"}\nnot json at all\n";
  close_out oc;
  match Corpus.load path with
  | Ok _ -> Alcotest.fail "loaded a malformed corpus"
  | Error msg ->
      Alcotest.(check bool) "names the file" true
        (String.length msg > 0)

(* ------------------------------------------------------------------ *)
(* Bounded campaign: clean run, no failures, metrics exported *)

let test_fuzz_clean_campaign () =
  let reg = Metrics.create () in
  let config =
    {
      Fuzz.default with
      Fuzz.seed = 11;
      budget = 0.0;
      max_cases = 2;
      registry = Some reg;
    }
  in
  match Fuzz.run config with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
      Alcotest.(check int) "cases" 2 o.Fuzz.cases;
      Alcotest.(check (list reject)) "no failures" [] o.Fuzz.failures;
      Alcotest.(check (list reject)) "no regressions" [] o.Fuzz.regressions;
      Alcotest.(check bool) "checks ran" true (o.Fuzz.checks > 0);
      let rendered = Metrics.render reg in
      List.iter
        (fun series ->
          if not (contains ~affix:series rendered) then
            Alcotest.failf "metric %s missing from exposition" series)
        [
          "psdp_fuzz_cases_total";
          "psdp_fuzz_checks_total";
          "psdp_fuzz_check_seconds";
        ];
      Alcotest.(check bool) "failpoints left disarmed" true
        (Psdp_fault.Failpoint.armed () = [])

let test_fuzz_rejects_bad_failpoint () =
  match
    Fuzz.run { Fuzz.default with Fuzz.failpoint_specs = [ "nonsense spec" ] }
  with
  | Ok _ -> Alcotest.fail "accepted a bad failpoint spec"
  | Error _ -> Alcotest.(check bool) "disarmed" true (Psdp_fault.Failpoint.armed () = [])

(* ------------------------------------------------------------------ *)
(* Malformed-instance corpus: every Loader validation path *)

let malformed_files () =
  Sys.readdir "data/malformed" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".inst")
  |> List.sort compare
  |> List.map (Filename.concat "data/malformed")

let test_malformed_loader () =
  let files = malformed_files () in
  Alcotest.(check bool) "corpus present" true (List.length files >= 14);
  List.iter
    (fun f ->
      match Psdp_instances.Loader.load_result f with
      | Ok _ -> Alcotest.failf "loader accepted %s" f
      | Error msg ->
          Alcotest.(check bool) (f ^ " has message") true
            (String.length msg > 0))
    files

let test_malformed_cli_exit_2 () =
  List.iter
    (fun f ->
      let code = run_cli [ "info"; f ] in
      if code <> 2 then Alcotest.failf "psdp info %s exited %d, want 2" f code)
    (malformed_files ())

(* ------------------------------------------------------------------ *)
(* Acceptance self-test: corrupt one backend, catch, shrink, replay *)

let chaos_failpoint = "evaluator.dots.sketched=corrupt@prob:0.7:1234"

(* Empirically failing under [chaos_failpoint]; small enough that the
   whole self-test (campaign + library replay + CLI replay) stays in
   single-digit seconds. *)
let chaos_spec =
  { Spec.family = Spec.Beamforming { corr = 0.0 }; dim = 3; n = 3; seed = 954687 }

let test_selftest_corrupt_backend_replay () =
  let path = temp_corpus () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let config =
    {
      Fuzz.default with
      Fuzz.seed = 7;
      budget = 0.0;
      max_cases = 1;
      props = Result.get_ok (Property.select [ "backends_agree" ]);
      focus = [ chaos_spec ];
      corpus_path = Some path;
      failpoint_specs = [ chaos_failpoint ];
    }
  in
  let outcome = Result.get_ok (Fuzz.run config) in
  let failure =
    match outcome.Fuzz.failures with
    | [ f ] -> f
    | l -> Alcotest.failf "want exactly 1 failure, got %d" (List.length l)
  in
  let entry = failure.Fuzz.entry in
  (* The campaign shrank and persisted the failure... *)
  Alcotest.(check bool) "persisted" true (Sys.file_exists path);
  Alcotest.(check (list string)) "failpoints recorded" [ chaos_failpoint ]
    entry.Corpus.failpoints;
  (match failure.Fuzz.replay with
  | Some cmd ->
      Alcotest.(check bool) "replay one-liner" true
        (is_prefix ~affix:"SEED=7 psdp fuzz --replay " cmd)
  | None -> Alcotest.fail "no replay command");
  (* ...library replay reproduces the identical message... *)
  (match Fuzz.replay ~corpus:path ~id:entry.Corpus.id () with
  | Ok (Fuzz.Reproduced msg, replayed) ->
      Alcotest.(check string) "byte-for-byte message" entry.Corpus.message msg;
      Alcotest.(check string) "same id" entry.Corpus.id replayed.Corpus.id
  | Ok (Fuzz.Not_reproduced, _) -> Alcotest.fail "failure did not reproduce"
  | Error msg -> Alcotest.fail msg);
  (* ...and so does the CLI one-liner, exiting 1 with the message. *)
  let out = Filename.temp_file "psdp-qa-replay" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove out)
  @@ fun () ->
  let code =
    run_cli ~stdout:out [ "fuzz"; "--replay"; entry.Corpus.id; "--corpus"; path ]
  in
  Alcotest.(check int) "CLI replay exits 1" 1 code;
  let ic = open_in out in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Alcotest.(check bool) "CLI prints the persisted message" true
    (contains ~affix:entry.Corpus.message text)

(* Same acceptance story for the certified Chebyshev remainder: corrupt
   the one-sided shift inside the exp kernel and prove the
   remainder-soundness oracle (one-sidedness against dense ground
   truth) catches it, shrinks it, and replays it byte-for-byte. The
   solver-level bracket oracles cannot see this fault — decisions are
   ratio-normalized (dots/trace), which absorbs any scalar shift — so
   this self-test pins the one oracle that can. *)
let remainder_failpoint = "expm.cheb.remainder=corrupt@always"

let remainder_spec =
  { Spec.family = Spec.Graph_cycle; dim = 3; n = 3; seed = 954685 }

let test_selftest_corrupt_remainder_replay () =
  let path = temp_corpus () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let config =
    {
      Fuzz.default with
      Fuzz.seed = 11;
      budget = 0.0;
      max_cases = 1;
      props = Result.get_ok (Property.select [ "cheb_remainder_sound" ]);
      focus = [ remainder_spec ];
      corpus_path = Some path;
      failpoint_specs = [ remainder_failpoint ];
    }
  in
  let outcome = Result.get_ok (Fuzz.run config) in
  let failure =
    match outcome.Fuzz.failures with
    | [ f ] -> f
    | l -> Alcotest.failf "want exactly 1 failure, got %d" (List.length l)
  in
  let entry = failure.Fuzz.entry in
  Alcotest.(check string) "caught by the soundness oracle"
    "cheb_remainder_sound" entry.Corpus.prop;
  Alcotest.(check (list string)) "failpoints recorded" [ remainder_failpoint ]
    entry.Corpus.failpoints;
  match Fuzz.replay ~corpus:path ~id:entry.Corpus.id () with
  | Ok (Fuzz.Reproduced msg, replayed) ->
      Alcotest.(check string) "byte-for-byte message" entry.Corpus.message msg;
      Alcotest.(check string) "same id" entry.Corpus.id replayed.Corpus.id
  | Ok (Fuzz.Not_reproduced, _) -> Alcotest.fail "failure did not reproduce"
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* QCheck properties, through the pinned-seed harness *)

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"spec JSON round-trip" ~count:200 Spec.arbitrary
    (fun s -> Spec.of_json (Spec.to_json s) = Ok s)

let prop_spec_id_stable =
  QCheck.Test.make ~name:"corpus ids depend only on content" ~count:100
    Spec.arbitrary (fun s ->
      Corpus.id_of ~prop:"p" ~spec:s ~failpoints:[]
      = Corpus.id_of ~prop:"p" ~spec:s ~failpoints:[]
      && Corpus.id_of ~prop:"p" ~spec:s ~failpoints:[]
         <> Corpus.id_of ~prop:"q" ~spec:s ~failpoints:[])

let qcheck_cases =
  Qa_harness.cases [ prop_spec_roundtrip; prop_spec_id_stable ]

let () =
  Alcotest.run "qa"
    [
      ( "spec",
        [
          Alcotest.test_case "json round-trip (sampled)" `Quick
            test_spec_json_roundtrip;
          Alcotest.test_case "validate rejects" `Quick test_spec_validate_rejects;
          Alcotest.test_case "build is deterministic" `Quick
            test_spec_build_deterministic;
          Alcotest.test_case "shrink is well-founded" `Quick
            test_spec_shrink_well_founded;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "identities family" `Slow smoke_identities;
          Alcotest.test_case "cycle family" `Slow smoke_cycle;
          Alcotest.test_case "random family" `Slow smoke_random;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "round-trip + prefix find" `Quick
            test_corpus_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick
            test_corpus_rejects_malformed;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "clean bounded campaign" `Slow
            test_fuzz_clean_campaign;
          Alcotest.test_case "rejects bad failpoint" `Quick
            test_fuzz_rejects_bad_failpoint;
        ] );
      ( "loader-corpus",
        [
          Alcotest.test_case "loader rejects all" `Quick test_malformed_loader;
          Alcotest.test_case "CLI exits 2" `Quick test_malformed_cli_exit_2;
        ] );
      ( "selftest",
        [
          Alcotest.test_case "corrupt backend -> shrink -> replay" `Slow
            test_selftest_corrupt_backend_replay;
          Alcotest.test_case "corrupt cheb remainder -> caught -> replay" `Slow
            test_selftest_corrupt_remainder_replay;
        ] );
      ("properties", qcheck_cases);
    ]
