(* The detection-campaign driver and the one answer it gives.

   [Detect.Campaign.candidates] is the only lockset pass the evaluation
   harness, Guided, repair and the benchmark run, so at one budget they
   must confirm the same races: on C1-C9 at 2 schedules and 6 directed
   runs, Evaluate and Guided confirm the same 659 keys, and repair's
   targets are exactly those keys folded to race ids (434 at seed 7,
   437 at seed 42).  Guided confirms each key once per class and finds
   the keys confirming every candidate finds: 659 in 1,422 directed
   runs where that spends 2,677 at seed 7, 677 in 1,481 where it spends
   2,735 at seed 42.  The default Evaluate budget (3 schedules) gives
   the Table 5 anchor, 660 reproduced / 538 harmful / 122 benign. *)

module Pipeline = Narada_core.Pipeline
module Campaign = Detect.Campaign

let classes = List.filter (fun e -> e.Corpus.Corpus_def.e_id.[0] = 'C') Corpus.Registry.all

let analysis id =
  match Corpus.Registry.find id with
  | None -> Alcotest.failf "no corpus entry %s" id
  | Some e -> (
    match Eval.Evaluate.analyze_entry e with
    | Ok (_, an) -> an
    | Error msg -> Alcotest.failf "%s: %s" id msg)

let keys_of cands = List.map fst cands

(* C3 has a test synthesis cannot instantiate: the driver reports the
   instantiator's error instead of an empty candidate list. *)
let test_uninstantiable () =
  let an = analysis "C3" in
  let expected = "no context recipe for endpoint A" in
  let errors =
    List.filter_map
      (fun t ->
        match
          Campaign.candidates ~instantiate:(Pipeline.instantiator an t)
            ~schedules:2 ~seed:7L ()
        with
        | Error e -> Some e
        | Ok _ -> None)
      an.Pipeline.an_tests
  in
  Alcotest.(check bool) "some test uninstantiable" true (errors <> []);
  List.iter (Alcotest.(check string) "instantiator's error" expected) errors

let rec strictly_sorted = function
  | a :: (b :: _ as rest) -> Detect.Race.compare_key a b < 0 && strictly_sorted rest
  | _ -> true

let test_distinct_sorted () =
  List.iter
    (fun (e : Corpus.Corpus_def.entry) ->
      let an = analysis e.Corpus.Corpus_def.e_id in
      List.iter
        (fun t ->
          match
            Campaign.candidates ~instantiate:(Pipeline.instantiator an t)
              ~schedules:3 ~seed:7L ()
          with
          | Error _ -> ()
          | Ok cands ->
            Alcotest.(check bool) "distinct and key-sorted" true
              (strictly_sorted (keys_of cands));
            List.iter
              (fun (k, r) ->
                Alcotest.(check bool) "witness has its key" true
                  (Detect.Race.compare_key k (Detect.Race.key_of r) = 0))
              cands)
        an.Pipeline.an_tests)
    classes

(* ---- one answer across entry points ---- *)

(* (class id, key) of every race a campaign confirmed, sorted. *)
type confirmed = (string * Detect.Race.key) list

let sort_confirmed (xs : confirmed) =
  List.sort_uniq
    (fun (c, k) (c', k') ->
      match String.compare c c' with 0 -> Detect.Race.compare_key k k' | n -> n)
    xs

let evaluate ~schedules ~seed : confirmed =
  let opts =
    { Eval.Evaluate.default_options with opt_schedules = schedules; opt_seed = seed }
  in
  sort_confirmed
    (List.concat_map
       (fun ((e : Corpus.Corpus_def.entry), r) ->
         match r with
         | Error msg -> Alcotest.failf "%s: %s" e.Corpus.Corpus_def.e_id msg
         | Ok ce ->
           List.concat_map
             (fun te ->
               List.filter_map
                 (fun ro ->
                   if ro.Eval.Evaluate.ro_reproduced then
                     Some (e.Corpus.Corpus_def.e_id, ro.Eval.Evaluate.ro_key)
                   else None)
                 te.Eval.Evaluate.te_races)
             ce.Eval.Evaluate.cl_test_evals)
       (Eval.Evaluate.evaluate_corpus ~opts classes))

let guided () : confirmed =
  sort_confirmed
    (List.concat_map
       (fun (e : Corpus.Corpus_def.entry) ->
         match Eval.Guided.confirm_class ~seed:7L e with
         | Error msg -> Alcotest.failf "%s: %s" e.Corpus.Corpus_def.e_id msg
         | Ok gc ->
           List.map
             (fun k -> (e.Corpus.Corpus_def.e_id, k))
             gc.Eval.Guided.gc_confirmed)
       classes)

let rids_of (xs : confirmed) =
  List.sort_uniq compare
    (List.filter_map
       (fun (c, k) ->
         match Repair.Grammar.race_id_of_key k with
         | Ok rid -> Some (c, Repair.Grammar.race_id_to_string rid)
         | Error _ -> None)
       xs)

let repair_targets ~seed =
  let opts =
    { Repair.Engine.default_options with eo_seed = seed; eo_max_candidates = 0 }
  in
  List.sort_uniq compare
    (List.concat_map
       (fun (e : Corpus.Corpus_def.entry) ->
         let sub =
           Repair.Engine.subject_of_unit
             (Corpus.Registry.compiled_unit e)
             ~client_classes:[ e.Corpus.Corpus_def.e_seed_cls ]
             ~seed_cls:e.Corpus.Corpus_def.e_seed_cls
             ~seed_meth:e.Corpus.Corpus_def.e_seed_meth
         in
         match Repair.Engine.repair_all ~opts sub with
         | Error msg -> Alcotest.failf "%s: %s" e.Corpus.Corpus_def.e_id msg
         | Ok rp ->
           List.map
             (fun rr ->
               ( e.Corpus.Corpus_def.e_id,
                 Repair.Grammar.race_id_to_string rr.Repair.Engine.rr_id ))
             rp.Repair.Engine.rp_races)
       classes)

let show (xs : confirmed) =
  List.map (fun (c, k) -> c ^ " " ^ Detect.Race.key_to_string k) xs

let test_one_answer () =
  let eval7 = evaluate ~schedules:2 ~seed:7L in
  Alcotest.(check int) "Evaluate at 2 schedules" 659 (List.length eval7);
  Alcotest.(check (list string)) "Guided confirms Evaluate's keys"
    (show eval7) (show (guided ()));
  let targets7 = repair_targets ~seed:7L in
  Alcotest.(check int) "repair targets at seed 7" 434 (List.length targets7);
  Alcotest.(check (list (pair string string))) "repair targets = keys folded to race ids"
    (rids_of eval7) targets7;
  let targets42 = repair_targets ~seed:42L in
  Alcotest.(check int) "repair targets at seed 42" 437 (List.length targets42);
  Alcotest.(check (list (pair string string))) "repair targets = keys folded at seed 42"
    (rids_of (evaluate ~schedules:2 ~seed:42L))
    targets42

(* The Table 5 anchor and the corpus-wide work pin come from one run:
   Evaluate at seed 7 and the default budget over C1-C9 and X1-X3.
   The anchor totals C1-C9; the pin covers every class.  The work
   counters and the directed runs' step and postponed-set histograms
   are what every scheduler choice adds up to, so a change that makes
   the scheduler pick differently anywhere in the corpus moves them.
   [racefuzzer/steps] counts each directed run from its start;
   [racefuzzer/vm_steps] is what confirmation executed, each test's
   candidates sharing every run until their first matching access. *)
let corpus_counters =
  [
    ("detect/schedules", 1740);
    ("detect/candidates", 1995);
    ("detect/reproduced", 1784);
    ("triage/replays", 888);
    ("racefuzzer/vm_steps", 607_828);
  ]

(* (name, count, sum, min, max) *)
let corpus_histograms =
  [
    ("racefuzzer/postponed_max", 3202, 5645, 0, 2);
    ("racefuzzer/steps", 3202, 872_774, 0, 1446);
  ]

let test_table5_anchor () =
  let reg = Obs.Metrics.global () in
  Obs.Metrics.reset reg;
  let results = Eval.Evaluate.evaluate_corpus (classes @ Corpus.Registry.extras) in
  let totals =
    List.fold_left
      (fun (r, h, b) ((e : Corpus.Corpus_def.entry), res) ->
        match res with
        | Error msg -> Alcotest.failf "%s: %s" e.Corpus.Corpus_def.e_id msg
        | Ok ce when List.memq e classes ->
          ( r + ce.Eval.Evaluate.cl_reproduced,
            h + ce.Eval.Evaluate.cl_harmful,
            b + ce.Eval.Evaluate.cl_benign )
        | Ok _ -> (r, h, b))
      (0, 0, 0) results
  in
  Alcotest.(check (triple int int int)) "reproduced / harmful / benign"
    (660, 538, 122) totals;
  List.iter
    (fun (name, v) ->
      Alcotest.(check int) name v (Obs.Metrics.counter_value reg name))
    corpus_counters;
  let histograms = Obs.Metrics.histograms reg in
  List.iter
    (fun (name, count, sum, min, max) ->
      let got =
        match List.assoc_opt name histograms with
        | Some h -> Obs.Metrics.[ h.h_count; h.h_sum; h.h_min; h.h_max ]
        | None -> []
      in
      Alcotest.(check (list int)) (name ^ " count, sum, min, max")
        [ count; sum; min; max ] got)
    corpus_histograms

(* ---- each race key confirmed once ---- *)

(* The blind reference: per test, every candidate confirmed over 6
   directed runs ([confirm_all]), at the seeds Guided uses.  Its
   distinct confirmed keys, sorted, and the directed runs it spends. *)
let blind ~seed (an : Pipeline.analysis) =
  let keys, spent =
    List.fold_left
      (fun (keys, spent) t ->
        let instantiate = Pipeline.instantiator an t in
        match Campaign.candidates ~instantiate ~schedules:2 ~seed () with
        | Error _ -> (keys, spent)
        | Ok cands ->
          let results =
            Detect.Racefuzzer.confirm_all ~instantiate
              ~cands:
                (Array.of_list
                   (List.map (fun (_, r) -> Detect.Racefuzzer.candidate_of_report r) cands))
              ~runs:6 ~seed ~settle:ignore
          in
          List.fold_left2
            (fun (keys, spent) (k, _) ((c : Detect.Racefuzzer.confirm_result), _) ->
              ((if c.confirmed <> None then k :: keys else keys), spent + c.runs_used))
            (keys, spent) cands (Array.to_list results))
      ([], 0) an.Pipeline.an_tests
  in
  (List.sort_uniq Detect.Race.compare_key keys, spent)

(* Per class (candidates, keys, Guided's schedules), then the totals
   (keys, Guided's schedules, the blind reference's schedules).  Guided
   confirms the reference's keys exactly, skipping the candidates whose
   key the class has confirmed. *)
let once_7 =
  ( [
      ("C1", 160, 77, 114);
      ("C2", 178, 78, 137);
      ("C3", 18, 18, 18);
      ("C4", 20, 18, 31);
      ("C5", 465, 275, 604);
      ("C6", 882, 157, 443);
      ("C7", 4, 4, 7);
      ("C8", 36, 24, 48);
      ("C9", 10, 8, 20);
    ],
    (659, 1422, 2677) )

let once_42 =
  ( [
      ("C1", 166, 83, 126);
      ("C2", 181, 79, 137);
      ("C3", 18, 18, 18);
      ("C4", 20, 18, 31);
      ("C5", 481, 288, 648);
      ("C6", 861, 154, 447);
      ("C7", 5, 5, 6);
      ("C8", 36, 24, 48);
      ("C9", 10, 8, 20);
    ],
    (677, 1481, 2735) )

let test_once ~seed (rows, totals) () =
  let got =
    List.fold_left2
      (fun (tk, tg, tb) (e : Corpus.Corpus_def.entry) (id, cands, keys, sched) ->
        Alcotest.(check string) "class order" id e.Corpus.Corpus_def.e_id;
        let an = analysis id in
        let g = Eval.Guided.confirm_analysis ~seed an in
        let bkeys, bsched = blind ~seed an in
        let check name = Alcotest.(check int) (id ^ " " ^ name) in
        check "candidates" cands g.Eval.Guided.gc_candidates;
        check "keys" keys (List.length g.Eval.Guided.gc_confirmed);
        check "schedules" sched g.Eval.Guided.gc_schedules;
        let show = List.map Detect.Race.key_to_string in
        Alcotest.(check (list string)) (id ^ " keys = blind reference's") (show bkeys)
          (show g.Eval.Guided.gc_confirmed);
        (tk + keys, tg + g.Eval.Guided.gc_schedules, tb + bsched))
      (0, 0, 0) classes rows
  in
  Alcotest.(check (triple int int int)) "keys, schedules, blind schedules" totals got

let () =
  Alcotest.run "campaign"
    [
      ( "candidates",
        [
          Alcotest.test_case "uninstantiable test is Error" `Quick test_uninstantiable;
          Alcotest.test_case "distinct and key-sorted" `Quick test_distinct_sorted;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "eval, guided and repair agree" `Slow test_one_answer;
          Alcotest.test_case "Table 5 anchor 660/538/122" `Slow test_table5_anchor;
          Alcotest.test_case "each key once, seed 7: 659/1422/2677" `Slow
            (test_once ~seed:7L once_7);
          Alcotest.test_case "each key once, seed 42: 677/1481/2735" `Slow
            (test_once ~seed:42L once_42);
        ] );
    ]
