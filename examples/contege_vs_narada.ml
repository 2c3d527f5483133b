(* The §5 comparison, runnable: ConTeGe-style random concurrent test
   generation vs Narada's directed synthesis, on two corpus classes.

     dune exec examples/contege_vs_narada.exe [BUDGET]

   The paper reports that ConTeGe needed 2.9K random tests to find two
   thread-safety violations in C5, 105 for one in C6, and found nothing
   on the other classes with up to 70K tests — while Narada's handful of
   directed tests expose hundreds of races. *)

let () =
  let budget =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 120
  in
  print_endline "=== random generation (ConTeGe-style) vs directed synthesis ===\n";
  List.iter
    (fun id ->
      match Corpus.Registry.find id with
      | None -> ()
      | Some e ->
        Printf.printf "--- %s (%s) ---\n" id e.Corpus.Corpus_def.e_name;
        (* Narada *)
        let an =
          match
            Narada_core.Pipeline.analyze_source e.Corpus.Corpus_def.e_source
              ~client_classes:[ e.Corpus.Corpus_def.e_seed_cls ]
              ~seed_cls:e.Corpus.Corpus_def.e_seed_cls
              ~seed_meth:e.Corpus.Corpus_def.e_seed_meth
          with
          | Ok an -> an
          | Error err -> failwith err
        in
        let confirmed = ref 0 in
        List.iter
          (fun t ->
            let instantiate = Narada_core.Pipeline.instantiator an t in
            match instantiate () with
            | Error _ -> ()
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
              Array.iter
                (fun ((c : Detect.Racefuzzer.confirm_result), _) ->
                  if c.Detect.Racefuzzer.confirmed <> None then incr confirmed)
                (Detect.Racefuzzer.confirm_all ~instantiate ~cands ~runs:4 ~seed:7L
                   ~settle:ignore))
          an.Narada_core.Pipeline.an_tests;
        Printf.printf
          "  narada : %d directed tests -> %d confirmed racy executions (%.2fs synthesis)\n"
          (List.length an.Narada_core.Pipeline.an_tests)
          !confirmed an.Narada_core.Pipeline.an_seconds;
        (* ConTeGe *)
        let t0 = Obs.Clock.ticks () in
        let camp = Contege.campaign e ~budget ~schedules:5 ~seed:11L in
        let dt = Obs.Clock.elapsed_s ~since:t0 in
        Printf.printf
          "  random : %d blind tests (%d valid) -> %d violations%s (%.2fs)\n\n"
          camp.Contege.ca_tests camp.Contege.ca_valid camp.Contege.ca_violations
          (match camp.Contege.ca_first_violation with
          | Some i -> Printf.sprintf " (first at test %d)" i
          | None -> "")
          dt)
    [ "C1"; "C5" ];
  print_endline "The directed approach wins because it knows *which* methods";
  print_endline "to invoke and *which* objects must be shared; random search";
  print_endline "must stumble on both simultaneously."
