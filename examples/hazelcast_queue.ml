(* The paper's motivating example (§2, Figs. 2-5): the hazelcast
   SynchronizedWriteBehindQueue bug, reproduced end to end on the C1
   corpus entry.

     dune exec examples/hazelcast_queue.exe

   Narada takes the sequential seed test of Fig. 5 and synthesizes the
   racy test of Fig. 3: two wrapper queues around ONE coalesced queue,
   with removeFirst invoked from two threads.  The wrappers lock
   different monitors (mutex = this), so the inner queue's state races. *)

let () =
  let e = Corpus.C1_write_behind_queue.entry in
  print_endline "=== hazelcast SynchronizedWriteBehindQueue (C1) ===\n";
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
  Printf.printf "analysis: %s\n\n" (Narada_core.Pipeline.summary_to_string an);

  (* Find the Fig. 3 test: removeFirst x removeFirst. *)
  let t =
    List.find
      (fun (t : Narada_core.Synth.test) ->
        let p = t.Narada_core.Synth.st_pair in
        p.Narada_core.Pairs.p_a.Narada_core.Pairs.ep_qname
        = "SynchronizedWriteBehindQueue.removeFirst"
        && p.Narada_core.Pairs.p_b.Narada_core.Pairs.ep_qname
           = "SynchronizedWriteBehindQueue.removeFirst")
      an.Narada_core.Pipeline.an_tests
  in
  print_endline "synthesized test (the paper's Fig. 3):";
  print_string (Narada_core.Synth.to_source t);

  let instantiate = Narada_core.Pipeline.instantiator an t in
  (match instantiate () with
  | Error err -> Printf.printf "instantiation failed: %s\n" err
  | Ok inst ->
    let m = inst.Detect.Racefuzzer.ri_machine in
    (* Show the Fig. 4 sharing structure. *)
    print_endline "\nobject graph (paper Fig. 4):";
    List.iteri
      (fun i tid ->
        match Runtime.Machine.frames_of m tid with
        | f :: _ -> (
          let recv = f.Runtime.Machine.regs.(0) in
          match Runtime.Machine.deref_path m recv [ "queue" ] with
          | Some q ->
            Printf.printf "  thread %d: swbq%d = %s, swbq%d.queue = %s\n" tid
              (i + 1)
              (Runtime.Value.to_string recv)
              (i + 1) (Runtime.Value.to_string q)
          | None -> ())
        | [] -> ())
      inst.Detect.Racefuzzer.ri_threads;

    (* Detect, confirm, triage. *)
    let ls = Detect.Lockset.attach m in
    ignore (Conc.Exec.run m (Conc.Scheduler.random ~seed:5L));
    print_endline "\nraces found by the hybrid detector on one execution:";
    List.iter
      (fun cand ->
        Printf.printf "  %s\n" (Detect.Race.key_to_string (Detect.Race.key_of cand)))
      (Detect.Lockset.candidates ls);
    print_endline "\ndirected confirmation (RaceFuzzer) + triage:";
    let cands =
      Array.of_list
        (List.map Detect.Racefuzzer.candidate_of_report (Detect.Lockset.candidates ls))
    in
    let results =
      Detect.Racefuzzer.confirm_all ~instantiate ~cands ~runs:10 ~seed:7L ~settle:ignore
    in
    Array.iteri
      (fun i c ->
        match (fst results.(i)).Detect.Racefuzzer.confirmed with
        | Some rep ->
          let verdict =
            match Detect.Triage.triage ~instantiate ~cand:c () with
            | Ok v -> Detect.Triage.verdict_to_string v
            | Error _ -> "?"
          in
          Printf.printf "  CONFIRMED [%s]\n%s\n" verdict (Detect.Race.to_string rep)
        | None -> ())
      cands);

  print_endline "\nThe fix (adopted upstream, hazelcast#4039): the wrapper";
  print_endline "must synchronize on the wrapped queue, not on itself."
