(* Corpus end-to-end tests: every benchmark class compiles, its seed
   test runs cleanly, the pipeline produces work, and the documented
   bug of each class is actually found by the full detection stack. *)

open Narada_core

let analysis_cache : (string, Pipeline.analysis) Hashtbl.t = Hashtbl.create 9

let analysis_of (e : Corpus.Corpus_def.entry) =
  match Hashtbl.find_opt analysis_cache e.Corpus.Corpus_def.e_id with
  | Some an -> an
  | None ->
    let an =
      Testlib.Fixtures.analyze ~client:e.Corpus.Corpus_def.e_seed_cls
        e.Corpus.Corpus_def.e_source
    in
    Hashtbl.replace analysis_cache e.Corpus.Corpus_def.e_id an;
    an

let test_seed_runs (e : Corpus.Corpus_def.entry) () =
  let cu = Jir.Compile.compile_source e.Corpus.Corpus_def.e_source in
  let _m, _trace, res =
    Runtime.Interp.record cu ~client_classes:[ e.Corpus.Corpus_def.e_seed_cls ]
      ~cls:e.Corpus.Corpus_def.e_seed_cls ~meth:"main"
  in
  match res with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "%s seed crashed: %s" e.Corpus.Corpus_def.e_id err

let test_pipeline_nontrivial (e : Corpus.Corpus_def.entry) () =
  let an = analysis_of e in
  Alcotest.(check bool) "pairs found" true (an.Pipeline.an_pairs <> []);
  Alcotest.(check bool) "tests synthesized" true (an.Pipeline.an_tests <> []);
  Alcotest.(check bool) "tests <= pairs" true
    (List.length an.Pipeline.an_tests <= List.length an.Pipeline.an_pairs)

let test_some_test_instantiates (e : Corpus.Corpus_def.entry) () =
  let an = analysis_of e in
  let ok =
    List.exists
      (fun t ->
        match (Pipeline.instantiator an t) () with Ok _ -> true | Error _ -> false)
      an.Pipeline.an_tests
  in
  Alcotest.(check bool) "at least one test instantiates" true ok

(* The documented bug of each class: a field that must show up in a
   reproduced (directed-schedule-confirmed) race. *)
let expected_racy_field = function
  | "C1" -> Some "count" (* coalesced queue state under wrong mutex *)
  | "C2" -> Some "count" (* backing collection under wrong mutex *)
  | "C3" -> Some "count" (* unsynchronized size/reset *)
  | "C4" -> Some "size" (* cross-bin reads *)
  | "C5" -> Some "count" (* fully unsynchronized index *)
  | "C6" -> Some "currentPosition" (* reset/scan races *)
  | "C7" -> Some "valid" (* invalidateAll without task locks *)
  | "C8" -> Some "valueWithMargin" (* unsynchronized flush *)
  | "C9" -> Some "buf" (* close vs ready *)
  | _ -> None

let test_known_bug_found (e : Corpus.Corpus_def.entry) () =
  match expected_racy_field e.Corpus.Corpus_def.e_id with
  | None -> ()
  | Some field ->
    let an = analysis_of e in
    let found =
      List.exists
        (fun (t : Synth.test) ->
          String.equal t.Synth.st_pair.Pairs.p_field field
          &&
          let instantiate = Pipeline.instantiator an t in
          match instantiate () with
          | Error _ -> false
          | Ok inst ->
            let ls = Detect.Lockset.attach inst.Detect.Racefuzzer.ri_machine in
            ignore
              (Conc.Exec.run inst.Detect.Racefuzzer.ri_machine
                 (Conc.Scheduler.random ~seed:5L));
            let cands =
              Array.of_list
                (List.filter
                   (fun c -> String.equal c.Detect.Racefuzzer.c_field field)
                   (List.map Detect.Racefuzzer.candidate_of_report
                      (Detect.Lockset.candidates ls)))
            in
            Array.exists
              (fun ((r : Detect.Racefuzzer.confirm_result), _) ->
                r.Detect.Racefuzzer.confirmed <> None)
              (Detect.Racefuzzer.confirm_all ~instantiate ~cands ~runs:6 ~seed:7L
                 ~settle:ignore))
        an.Pipeline.an_tests
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s race on .%s reproduced" e.Corpus.Corpus_def.e_id field)
      true found

let test_stats_sane (e : Corpus.Corpus_def.entry) () =
  let cu = Jir.Compile.compile_source e.Corpus.Corpus_def.e_source in
  let prog = cu.Jir.Code.cu_program in
  Alcotest.(check bool) "methods > 0" true (Corpus.Corpus_def.method_count prog e > 0);
  Alcotest.(check bool) "loc > 10" true (Corpus.Corpus_def.loc_count prog e > 10)

let per_entry_cases =
  List.concat_map
    (fun (e : Corpus.Corpus_def.entry) ->
      let id = e.Corpus.Corpus_def.e_id in
      [
        Alcotest.test_case (id ^ " seed runs") `Quick (test_seed_runs e);
        Alcotest.test_case (id ^ " pipeline") `Quick (test_pipeline_nontrivial e);
        Alcotest.test_case (id ^ " instantiates") `Quick
          (test_some_test_instantiates e);
        Alcotest.test_case (id ^ " known bug") `Slow (test_known_bug_found e);
        Alcotest.test_case (id ^ " stats") `Quick (test_stats_sane e);
      ])
    Corpus.Registry.all

let test_registry_complete () =
  Alcotest.(check int) "nine entries" 9 (List.length Corpus.Registry.all);
  Alcotest.(check (list string)) "ids"
    [ "C1"; "C2"; "C3"; "C4"; "C5"; "C6"; "C7"; "C8"; "C9" ]
    Corpus.Registry.ids;
  Alcotest.(check bool) "find case-insensitive" true
    (Corpus.Registry.find "c3" <> None);
  Alcotest.(check bool) "find unknown" true (Corpus.Registry.find "C10" = None)

let test_extras_race_like_c2 () =
  (* The footnote-5 claim: the extra openjdk wrappers race "very
     similarly to SynchronizedCollection" — every extra must yield
     pairs, tests, and a reproduced race on the backing count/slots. *)
  List.iter
    (fun (e : Corpus.Corpus_def.entry) ->
      let an =
        Testlib.Fixtures.analyze ~client:e.Corpus.Corpus_def.e_seed_cls
          e.Corpus.Corpus_def.e_source
      in
      Alcotest.(check bool)
        (e.Corpus.Corpus_def.e_id ^ " has pairs")
        true
        (an.Pipeline.an_pairs <> []);
      let reproduced =
        List.exists
          (fun t ->
            let instantiate = Pipeline.instantiator an t in
            match instantiate () with
            | Error _ -> false
            | Ok inst ->
              let ls = Detect.Lockset.attach inst.Detect.Racefuzzer.ri_machine in
              ignore
                (Conc.Exec.run inst.Detect.Racefuzzer.ri_machine
                   (Conc.Scheduler.random ~seed:5L));
              let cands =
                Array.of_list
                  (List.map Detect.Racefuzzer.candidate_of_report
                     (Detect.Lockset.candidates ls))
              in
              Array.exists
                (fun ((r : Detect.Racefuzzer.confirm_result), _) ->
                  r.Detect.Racefuzzer.confirmed <> None)
                (Detect.Racefuzzer.confirm_all ~instantiate ~cands ~runs:6 ~seed:7L
                   ~settle:ignore))
          an.Pipeline.an_tests
      in
      Alcotest.(check bool)
        (e.Corpus.Corpus_def.e_id ^ " reproduces a race")
        true reproduced)
    Corpus.Registry.extras

let test_paper_rows_present () =
  List.iter
    (fun (e : Corpus.Corpus_def.entry) ->
      let p = e.Corpus.Corpus_def.e_paper in
      Alcotest.(check bool) "paper methods > 0" true (p.Corpus.Corpus_def.pr_methods > 0);
      Alcotest.(check bool) "paper races >= harmful" true
        (p.Corpus.Corpus_def.pr_races >= p.Corpus.Corpus_def.pr_harmful))
    Corpus.Registry.all

let () =
  Alcotest.run "corpus"
    [
      ("entries", per_entry_cases);
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "paper rows" `Quick test_paper_rows_present;
          Alcotest.test_case "footnote-5 extras" `Slow test_extras_race_like_c2;
        ] );
    ]
