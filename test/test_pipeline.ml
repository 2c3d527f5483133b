(* End-to-end pipeline tests: the full §3 story on the paper's examples,
   culminating in a Figure 3-shaped synthesized test for the motivating
   hazelcast bug that the detection stack confirms as a real race. *)

open Narada_core

let test_fig1_end_to_end () =
  let an = Testlib.Fixtures.analyze Testlib.Fixtures.fig1 in
  (* at least one synthesized test confirms a harmful race on count *)
  let confirmed_harmful =
    List.exists
      (fun (t : Synth.test) ->
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
              (List.map Detect.Racefuzzer.candidate_of_report (Detect.Lockset.candidates ls))
          in
          Array.exists2
            (fun c ((r : Detect.Racefuzzer.confirm_result), _) ->
              r.Detect.Racefuzzer.confirmed <> None
              && Detect.Triage.triage ~instantiate ~cand:c () = Ok Detect.Triage.Harmful)
            cands
            (Detect.Racefuzzer.confirm_all ~instantiate ~cands ~runs:10 ~seed:7L
               ~settle:ignore))
      an.Pipeline.an_tests
  in
  Alcotest.(check bool) "harmful count race synthesized and confirmed" true
    confirmed_harmful

let test_c1_fig3_shape () =
  (* The motivating example: for the removeFirst x removeFirst pair the
     synthesized context must wrap ONE coalesced queue in TWO wrapper
     objects — Figure 3 exactly. *)
  let e = Corpus.C1_write_behind_queue.entry in
  let an = Testlib.Fixtures.analyze ~client:"Seed" e.Corpus.Corpus_def.e_source in
  let t =
    match
      List.find_opt
        (fun (t : Synth.test) ->
          t.Synth.st_pair.Pairs.p_a.Pairs.ep_qname
          = "SynchronizedWriteBehindQueue.removeFirst"
          && t.Synth.st_pair.Pairs.p_b.Pairs.ep_qname
             = "SynchronizedWriteBehindQueue.removeFirst")
        an.Pipeline.an_tests
    with
    | Some t -> t
    | None -> Alcotest.fail "no removeFirst x removeFirst test"
  in
  match (Pipeline.instantiator an t) () with
  | Error e -> Alcotest.fail e
  | Ok inst ->
    let m = inst.Detect.Racefuzzer.ri_machine in
    let recvs =
      List.map
        (fun tid ->
          match Runtime.Machine.frames_of m tid with
          | f :: _ -> f.Runtime.Machine.regs.(0)
          | [] -> Runtime.Value.Vnull)
        inst.Detect.Racefuzzer.ri_threads
    in
    (match recvs with
    | [ r1; r2 ] ->
      Alcotest.(check bool) "wrappers distinct" false (Runtime.Value.equal r1 r2);
      let q v = Runtime.Machine.deref_path m v [ "queue" ] in
      (match (q r1, q r2) with
      | Some (Runtime.Value.Vref a), Some (Runtime.Value.Vref b) ->
        Alcotest.(check int) "one shared coalesced queue" a b;
        Alcotest.(check (option string)) "inner queue class"
          (Some "CoalescedWriteBehindQueue")
          (Runtime.Heap.class_of (Runtime.Machine.heap m) a)
      | _ -> Alcotest.fail "queue fields unset")
    | _ -> Alcotest.fail "expected two receivers")

let test_c1_race_on_inner_state () =
  (* Running the Fig. 3 test under the directed scheduler must confirm a
     race on the coalesced queue's state. *)
  let e = Corpus.C1_write_behind_queue.entry in
  let an = Testlib.Fixtures.analyze ~client:"Seed" e.Corpus.Corpus_def.e_source in
  let confirmed =
    List.exists
      (fun (t : Synth.test) ->
        String.equal t.Synth.st_pair.Pairs.p_field "count"
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
              (List.map Detect.Racefuzzer.candidate_of_report (Detect.Lockset.candidates ls))
          in
          Array.exists
            (fun ((r : Detect.Racefuzzer.confirm_result), _) ->
              r.Detect.Racefuzzer.confirmed <> None)
            (Detect.Racefuzzer.confirm_all ~instantiate ~cands ~runs:10 ~seed:7L
               ~settle:ignore))
      an.Pipeline.an_tests
  in
  Alcotest.(check bool) "count race confirmed" true confirmed

let test_pipeline_timing_recorded () =
  let an = Testlib.Fixtures.analyze Testlib.Fixtures.fig1 in
  Alcotest.(check bool) "non-negative time" true (an.Pipeline.an_seconds >= 0.0);
  Alcotest.(check bool) "trace recorded" true (an.Pipeline.an_trace_len > 0)

let test_pipeline_error_on_bad_source () =
  match
    Pipeline.analyze_source "class A {" ~client_classes:[ "A" ] ~seed_cls:"A"
      ~seed_meth:"main"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a parse error to surface"

let test_pipeline_error_on_crashing_seed () =
  match
    Pipeline.analyze_source
      "class Seed { static void main() { throw \"seed broken\"; } }"
      ~client_classes:[ "Seed" ] ~seed_cls:"Seed" ~seed_meth:"main"
  with
  | Error msg ->
    Alcotest.(check bool) "mentions seed" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected seed failure to surface"

let test_summary_string () =
  let an = Testlib.Fixtures.analyze Testlib.Fixtures.fig1 in
  let s = Pipeline.summary_to_string an in
  Alcotest.(check bool) "mentions pairs" true (String.length s > 20)

let () =
  Alcotest.run "pipeline"
    [
      ( "end to end",
        [
          Alcotest.test_case "fig1 harmful race" `Quick test_fig1_end_to_end;
          Alcotest.test_case "C1 Fig3 structure" `Quick test_c1_fig3_shape;
          Alcotest.test_case "C1 inner race" `Slow test_c1_race_on_inner_state;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "timing" `Quick test_pipeline_timing_recorded;
          Alcotest.test_case "parse error" `Quick test_pipeline_error_on_bad_source;
          Alcotest.test_case "seed crash" `Quick test_pipeline_error_on_crashing_seed;
          Alcotest.test_case "summary" `Quick test_summary_string;
        ] );
    ]
