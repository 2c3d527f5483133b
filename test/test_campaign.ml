(* The detection-campaign driver and the one answer it gives.

   [Detect.Campaign.candidates] is the only lockset pass the evaluation
   harness, guided confirmation, repair and the benches run, so at one
   budget they must confirm the same races: on C1-C9 at 2 schedules and
   6 directed runs, Evaluate and blind Guided confirm the same 659 keys,
   and repair's targets are exactly those keys folded to race ids (434
   at seed 7, 437 at seed 42).  The default Evaluate budget (3
   schedules) gives the Table 5 anchor, 660 reproduced / 538 harmful /
   122 benign. *)

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

let witnesses cands = List.map (fun (_, r) -> Detect.Race.to_string r) cands

(* ---- the driver ---- *)

let test_jobs_independent () =
  let prev = Par.max_domains () in
  Par.set_max_domains 4;
  Fun.protect
    ~finally:(fun () -> Par.set_max_domains prev)
    (fun () ->
      List.iter
        (fun id ->
          let an = analysis id in
          List.iter
            (fun t ->
              let instantiate = Pipeline.instantiator an t in
              let run jobs =
                Campaign.candidates ~jobs ~instantiate ~schedules:3 ~seed:7L ()
              in
              match (run 1, run 4) with
              | Ok a, Ok b ->
                Alcotest.(check (list string)) "same witnesses" (witnesses a)
                  (witnesses b);
                Alcotest.(check bool) "same keys" true (keys_of a = keys_of b)
              | Error x, Error y -> Alcotest.(check string) "same error" x y
              | _ -> Alcotest.fail "job count changed instantiability")
            an.Pipeline.an_tests)
        [ "C1"; "C3"; "C9" ])

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

let guided_blind () : confirmed =
  sort_confirmed
    (List.concat_map
       (fun (e : Corpus.Corpus_def.entry) ->
         match
           Eval.Guided.confirm_class ~schedules:2 ~seed:7L
             ~mode:(Eval.Guided.Blind { runs = 6 }) e
         with
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
  Alcotest.(check (list string)) "blind Guided confirms Evaluate's keys"
    (show eval7) (show (guided_blind ()));
  let targets7 = repair_targets ~seed:7L in
  Alcotest.(check int) "repair targets at seed 7" 434 (List.length targets7);
  Alcotest.(check (list (pair string string))) "repair targets = keys folded to race ids"
    (rids_of eval7) targets7;
  let targets42 = repair_targets ~seed:42L in
  Alcotest.(check int) "repair targets at seed 42" 437 (List.length targets42);
  Alcotest.(check (list (pair string string))) "repair targets = keys folded at seed 42"
    (rids_of (evaluate ~schedules:2 ~seed:42L))
    targets42

let test_table5_anchor () =
  let totals =
    List.fold_left
      (fun (r, h, b) ((e : Corpus.Corpus_def.entry), res) ->
        match res with
        | Error msg -> Alcotest.failf "%s: %s" e.Corpus.Corpus_def.e_id msg
        | Ok ce ->
          ( r + ce.Eval.Evaluate.cl_reproduced,
            h + ce.Eval.Evaluate.cl_harmful,
            b + ce.Eval.Evaluate.cl_benign ))
      (0, 0, 0)
      (Eval.Evaluate.evaluate_corpus classes)
  in
  Alcotest.(check (triple int int int)) "reproduced / harmful / benign"
    (660, 538, 122) totals

let () =
  Alcotest.run "campaign"
    [
      ( "candidates",
        [
          Alcotest.test_case "jobs 1 = jobs 4" `Quick test_jobs_independent;
          Alcotest.test_case "uninstantiable test is Error" `Quick test_uninstantiable;
          Alcotest.test_case "distinct and key-sorted" `Quick test_distinct_sorted;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "eval, guided and repair agree" `Slow test_one_answer;
          Alcotest.test_case "Table 5 anchor 660/538/122" `Slow test_table5_anchor;
        ] );
    ]
