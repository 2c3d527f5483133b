(* CHESS-style systematic exploration tests. *)

let restart_main src () =
  let cu = Jir.Compile.compile_source src in
  let m = Runtime.Machine.create ~client_classes:[ "Main" ] cu in
  match Jir.Code.find_static cu "Main" "main" with
  | Some cm ->
    ignore (Runtime.Machine.new_thread m ~cm ~recv:None ~args:[] ());
    Ok m
  | None -> Error "no main"

let final_int m =
  match Runtime.Machine.status m 0 with
  | Runtime.Machine.Finished (Some (Runtime.Value.Vint n)) -> Some n
  | _ -> None

let explore ?config src ~on_execution =
  match Conc.Systematic.explore ?config ~restart:(restart_main src) ~on_execution () with
  | Ok stats -> stats
  | Error e -> Alcotest.fail e

let test_enumerates_lost_update () =
  (* Bounded exploration of the racy counter must witness BOTH final
     values: 2 (clean) and 1 (lost update). *)
  let seen = ref [] in
  let stats =
    explore Testlib.Fixtures.racy_counter ~on_execution:(fun m _ ->
        match final_int m with
        | Some n when not (List.mem n !seen) -> seen := n :: !seen
        | _ -> ())
  in
  Alcotest.(check bool) "not exhausted" false stats.Conc.Systematic.st_exhausted;
  Alcotest.(check (list int)) "both outcomes" [ 1; 2 ] (List.sort compare !seen)

let test_safe_counter_single_outcome () =
  let seen = ref [] in
  let stats =
    explore Testlib.Fixtures.safe_counter ~on_execution:(fun m _ ->
        match final_int m with
        | Some n when not (List.mem n !seen) -> seen := n :: !seen
        | _ -> ())
  in
  Alcotest.(check (list int)) "only 2" [ 2 ] !seen;
  Alcotest.(check bool) "multiple executions" true
    (stats.Conc.Systematic.st_executions > 1)

let test_finds_deadlock () =
  let stats = explore Testlib.Fixtures.deadlock ~on_execution:(fun _ _ -> ()) in
  Alcotest.(check bool) "deadlock reached" true
    (stats.Conc.Systematic.st_deadlocks > 0)

let test_budget_respected () =
  let config =
    { Conc.Systematic.default_config with Conc.Systematic.sc_max_executions = 5 }
  in
  let count = ref 0 in
  let stats =
    explore ~config Testlib.Fixtures.racy_counter ~on_execution:(fun _ _ -> incr count)
  in
  Alcotest.(check bool) "bounded" true (stats.Conc.Systematic.st_executions <= 5);
  Alcotest.(check int) "callback count" stats.Conc.Systematic.st_executions !count

let test_preemption_bound_monotone () =
  (* More preemptions allowed => at least as many executions explored. *)
  let execs bound =
    let config =
      {
        Conc.Systematic.default_config with
        Conc.Systematic.sc_preemption_bound = bound;
        sc_max_executions = 5_000;
      }
    in
    (explore ~config Testlib.Fixtures.racy_counter ~on_execution:(fun _ _ -> ()))
      .Conc.Systematic.st_executions
  in
  let e0 = execs 0 and e1 = execs 1 and e2 = execs 2 in
  Alcotest.(check bool) "0 <= 1" true (e0 <= e1);
  Alcotest.(check bool) "1 <= 2" true (e1 <= e2);
  Alcotest.(check bool) "bounding prunes" true (e0 < e2)

let test_zero_preemptions_misses_race () =
  (* With no preemptions the non-preemptive default serializes the two
     increments: the lost update is unreachable (it needs a context
     switch inside inc). *)
  let seen = ref [] in
  let config =
    {
      Conc.Systematic.default_config with
      Conc.Systematic.sc_preemption_bound = 0;
    }
  in
  ignore
    (explore ~config Testlib.Fixtures.racy_counter ~on_execution:(fun m _ ->
         match final_int m with
         | Some n when not (List.mem n !seen) -> seen := n :: !seen
         | _ -> ()));
  Alcotest.(check (list int)) "only the clean outcome" [ 2 ] !seen

let test_detector_integration () =
  (* Attach the lockset detector inside restart: systematic exploration
     plus hybrid detection covers the candidate without any randomness. *)
  let found = ref false in
  let restart () =
    match restart_main Testlib.Fixtures.racy_counter () with
    | Error e -> Error e
    | Ok m ->
      let ls = Detect.Lockset.attach m in
      Runtime.Machine.add_observer m Runtime.Machine.Sync_and_access (fun _ ->
          if (not !found) && Detect.Lockset.candidates ls <> [] then
            found := true);
      Ok m
  in
  (match Conc.Systematic.explore ~restart () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "candidate seen during exploration" true !found

let () =
  Alcotest.run "systematic"
    [
      ( "exploration",
        [
          Alcotest.test_case "lost update enumerated" `Quick
            test_enumerates_lost_update;
          Alcotest.test_case "safe counter" `Quick test_safe_counter_single_outcome;
          Alcotest.test_case "deadlock found" `Quick test_finds_deadlock;
          Alcotest.test_case "budget" `Quick test_budget_respected;
          Alcotest.test_case "preemption bound monotone" `Quick
            test_preemption_bound_monotone;
          Alcotest.test_case "bound 0 misses race" `Quick
            test_zero_preemptions_misses_race;
          Alcotest.test_case "detector integration" `Quick test_detector_integration;
        ] );
    ]
