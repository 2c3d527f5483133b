(* Evaluation harness tests: class evaluation invariants and the table
   renderers, exercised on the two smallest corpus entries so the suite
   stays fast. *)

let eval id =
  match Corpus.Registry.find id with
  | None -> Alcotest.failf "no corpus entry %s" id
  | Some e -> (
    match Eval.Evaluate.evaluate_class e with
    | Ok ce -> ce
    | Error msg -> Alcotest.failf "%s evaluation failed: %s" id msg)

let test_invariants id () =
  let ce = eval id in
  Alcotest.(check bool) "detected >= reproduced" true
    (ce.Eval.Evaluate.cl_detected >= ce.Eval.Evaluate.cl_reproduced);
  Alcotest.(check bool) "reproduced >= harmful + benign" true
    (ce.Eval.Evaluate.cl_reproduced
    >= ce.Eval.Evaluate.cl_harmful + ce.Eval.Evaluate.cl_benign);
  Alcotest.(check int) "one eval per test" ce.Eval.Evaluate.cl_tests
    (List.length ce.Eval.Evaluate.cl_test_evals);
  Alcotest.(check bool) "pairs >= tests" true
    (ce.Eval.Evaluate.cl_pairs >= ce.Eval.Evaluate.cl_tests)

let test_c9_expected_outcomes () =
  let ce = eval "C9" in
  (* close/ready and close/read races on buf must be reproduced and at
     least one triaged harmful (the NPE). *)
  Alcotest.(check bool) "some harmful" true (ce.Eval.Evaluate.cl_harmful >= 1);
  Alcotest.(check bool) "some detected" true (ce.Eval.Evaluate.cl_detected >= 2)

let test_fig14_distribution_sums () =
  let ce = eval "C7" in
  let dist = Eval.Evaluate.fig14_distribution ce in
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 dist in
  Alcotest.(check bool) "percentages sum to 100" true (abs_float (total -. 100.0) < 1e-6);
  Alcotest.(check int) "all buckets present" 6 (List.length dist)

let test_race_outcomes_deduped () =
  let ce = eval "C9" in
  List.iter
    (fun (te : Eval.Evaluate.test_eval) ->
      let keys = List.map (fun ro -> ro.Eval.Evaluate.ro_key) te.Eval.Evaluate.te_races in
      Alcotest.(check int) "unique keys per test"
        (List.length (List.sort_uniq Detect.Race.compare_key keys))
        (List.length keys))
    ce.Eval.Evaluate.cl_test_evals

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_table_renderers () =
  let evals = [ eval "C7"; eval "C9" ] in
  let t3 = Eval.Tables.table3 () in
  Alcotest.(check bool) "table3 lists hazelcast" true (contains t3 "hazelcast");
  let t4 = Eval.Tables.table4 evals in
  Alcotest.(check bool) "table4 has C7 row" true (contains t4 "C7");
  Alcotest.(check bool) "table4 has totals" true (contains t4 "Tot");
  let t5 = Eval.Tables.table5 evals in
  Alcotest.(check bool) "table5 has C9 row" true (contains t5 "C9");
  let f = Eval.Tables.fig14 evals in
  Alcotest.(check bool) "fig14 has legend" true (contains f "legend")

let test_determinism () =
  let ce1 = eval "C9" and ce2 = eval "C9" in
  Alcotest.(check int) "same detected" ce1.Eval.Evaluate.cl_detected
    ce2.Eval.Evaluate.cl_detected;
  Alcotest.(check int) "same harmful" ce1.Eval.Evaluate.cl_harmful
    ce2.Eval.Evaluate.cl_harmful

(* [evaluate_corpus] edge cases.  Timing fields differ run to run, so
   corpus results are compared on the measurement columns only. *)
let summary (ce : Eval.Evaluate.class_eval) =
  Eval.Evaluate.
    ( ce.cl_methods,
      ce.cl_pairs,
      ce.cl_tests,
      ce.cl_detected,
      ce.cl_reproduced,
      ce.cl_harmful,
      ce.cl_benign )

let test_corpus_empty () =
  Alcotest.(check int) "no results" 0 (List.length (Eval.Evaluate.evaluate_corpus []))

let test_corpus_singleton () =
  match Corpus.Registry.find "C9" with
  | None -> Alcotest.fail "no C9"
  | Some e -> (
    let direct = eval "C9" in
    match Eval.Evaluate.evaluate_corpus [ e ] with
    | [ (e', Ok ce) ] ->
      Alcotest.(check string) "same entry" e.Corpus.Corpus_def.e_id
        e'.Corpus.Corpus_def.e_id;
      Alcotest.(check bool) "matches evaluate_class" true (summary ce = summary direct)
    | _ -> Alcotest.fail "expected exactly one Ok result")

let test_corpus_oversubscribed () =
  match (Corpus.Registry.find "C7", Corpus.Registry.find "C9") with
  | Some a, Some b ->
    let run jobs =
      Eval.Evaluate.evaluate_corpus
        ~opts:{ Eval.Evaluate.default_options with opt_jobs = jobs }
        [ a; b ]
    in
    let seq = run 1 and wide = run 64 in
    List.iter2
      (fun (ea, ra) (eb, rb) ->
        Alcotest.(check string) "order preserved" ea.Corpus.Corpus_def.e_id
          eb.Corpus.Corpus_def.e_id;
        match (ra, rb) with
        | Ok ca, Ok cb ->
          Alcotest.(check bool) "same summary" true (summary ca = summary cb)
        | Error x, Error y -> Alcotest.(check string) "same error" x y
        | _ -> Alcotest.fail "jobs width changed an outcome")
      seq wide
  | _ -> Alcotest.fail "missing corpus entries"

let test_ablation () =
  match Corpus.Registry.find "C1" with
  | None -> Alcotest.fail "no C1"
  | Some e -> (
    match Eval.Evaluate.ablation e with
    | Error msg -> Alcotest.fail msg
    | Ok row ->
      Alcotest.(check int) "no races without context" 0
        row.Eval.Evaluate.ab_without_context;
      Alcotest.(check bool) "most tests racy with context" true
        (row.Eval.Evaluate.ab_with_context > row.Eval.Evaluate.ab_tests / 2);
      Alcotest.(check bool) "bounded by tests" true
        (row.Eval.Evaluate.ab_with_context <= row.Eval.Evaluate.ab_tests))

(* The table [narada eval] prints after Fig. 14: (class, tests, racy
   with context, racy without). *)
let test_ablation_table () =
  Alcotest.(check (list (pair string (triple int int int))))
    "C1-C9 rows"
    [
      ("C1", (31, 31, 0)); ("C2", (69, 56, 0)); ("C3", (22, 11, 0));
      ("C4", (42, 15, 0)); ("C5", (185, 122, 0)); ("C6", (109, 107, 0));
      ("C7", (11, 4, 0)); ("C8", (24, 24, 0)); ("C9", (10, 10, 0));
    ]
    (List.map
       (fun e ->
         match Eval.Evaluate.ablation e with
         | Error msg -> Alcotest.fail msg
         | Ok r ->
           ( r.Eval.Evaluate.ab_id,
             (r.Eval.Evaluate.ab_tests, r.Eval.Evaluate.ab_with_context,
              r.Eval.Evaluate.ab_without_context) ))
       Corpus.Registry.all)

let () =
  Alcotest.run "eval"
    [
      ( "invariants",
        [
          Alcotest.test_case "C7" `Quick (test_invariants "C7");
          Alcotest.test_case "C9" `Quick (test_invariants "C9");
          Alcotest.test_case "C3" `Quick (test_invariants "C3");
        ] );
      ( "outcomes",
        [
          Alcotest.test_case "C9 expectations" `Quick test_c9_expected_outcomes;
          Alcotest.test_case "fig14 sums" `Quick test_fig14_distribution_sums;
          Alcotest.test_case "dedup" `Quick test_race_outcomes_deduped;
          Alcotest.test_case "deterministic" `Quick test_determinism;
        ] );
      ("tables", [ Alcotest.test_case "renderers" `Quick test_table_renderers ]);
      ( "corpus",
        [
          Alcotest.test_case "empty" `Quick test_corpus_empty;
          Alcotest.test_case "singleton" `Quick test_corpus_singleton;
          Alcotest.test_case "jobs > work list" `Slow test_corpus_oversubscribed;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "context on/off (C1)" `Slow test_ablation;
          Alcotest.test_case "C1-C9 table" `Slow test_ablation_table;
        ] );
    ]
