(* Scheduler and executor tests: determinism, replay, deadlock handling,
   and qcheck properties over seeds. *)

let run_fixture ?(sched = Conc.Scheduler.round_robin ()) src =
  let cu = Jir.Compile.compile_source src in
  Conc.Exec.run_program cu ~client_classes:[ "Main" ] ~cls:"Main" ~meth:"main" sched

(* [run_fixture] under a {!Testlib.Fixtures.recording} of [sched]: the
   result, the machine and the tids picked. *)
let recorded_run ?(sched = Conc.Scheduler.round_robin ()) src =
  let sched, picks = Testlib.Fixtures.recording sched in
  let r, m = run_fixture ~sched src in
  (r, m, picks ())

let final_int m =
  match Runtime.Machine.status m 0 with
  | Runtime.Machine.Finished (Some (Runtime.Value.Vint n)) -> n
  | _ -> Alcotest.fail "main did not return an int"

let test_round_robin_deterministic () =
  let _, m1, picks1 = recorded_run Testlib.Fixtures.racy_counter in
  let _, m2, picks2 = recorded_run Testlib.Fixtures.racy_counter in
  Alcotest.(check int) "same value" (final_int m1) (final_int m2);
  Alcotest.(check (list int)) "same schedule" picks1 picks2

let seed_determinism =
  Testlib.Fixtures.qcheck_case
    (QCheck.Test.make ~name:"random scheduler deterministic per seed" ~count:30
       QCheck.(int_bound 10_000)
       (fun seed ->
         let sched () = Conc.Scheduler.random ~seed:(Int64.of_int seed) in
         let _, m1, picks1 = recorded_run ~sched:(sched ()) Testlib.Fixtures.racy_counter in
         let _, m2, picks2 = recorded_run ~sched:(sched ()) Testlib.Fixtures.racy_counter in
         final_int m1 = final_int m2 && picks1 = picks2))

let replay_matches =
  Testlib.Fixtures.qcheck_case
    (QCheck.Test.make ~name:"replaying a schedule reproduces the outcome"
       ~count:30
       QCheck.(int_bound 10_000)
       (fun seed ->
         let _, m1, picks =
           recorded_run
             ~sched:(Conc.Scheduler.random ~seed:(Int64.of_int seed))
             Testlib.Fixtures.racy_counter
         in
         let _r2, m2 =
           run_fixture
             ~sched:(Conc.Scheduler.replay ~decisions:picks)
             Testlib.Fixtures.racy_counter
         in
         final_int m1 = final_int m2))

let test_coarse_scheduler_runs () =
  let _r, m =
    run_fixture
      ~sched:(Conc.Scheduler.random_coarse ~seed:4L ~switch_denominator:5)
      Testlib.Fixtures.racy_counter
  in
  Alcotest.(check bool) "finished with 1 or 2" true
    (List.mem (final_int m) [ 1; 2 ])

let test_deadlock_reported_not_spun () =
  let cu = Jir.Compile.compile_source Testlib.Fixtures.deadlock in
  (* Round-robin alternates the workers one instruction at a time, so
     each acquires its first lock before requesting the second. *)
  let r, _m =
    Conc.Exec.run_program cu ~client_classes:[ "Main" ] ~cls:"Main" ~meth:"main"
      (Conc.Scheduler.round_robin ())
  in
  match r.Conc.Exec.outcome with
  | Conc.Exec.Deadlock _ ->
    Alcotest.(check bool) "bounded steps" true (r.Conc.Exec.steps < 10_000)
  | Conc.Exec.All_finished | Conc.Exec.Fuel_exhausted ->
    Alcotest.fail "expected deadlock under alternation"

let test_fuel_exhaustion () =
  let src =
    "class Main { static void main() { int i = 0; while (i >= 0) { i = 0; } } }"
  in
  let cu = Jir.Compile.compile_source src in
  let r, _m =
    Conc.Exec.run_program ~fuel:500 cu ~client_classes:[ "Main" ] ~cls:"Main"
      ~meth:"main"
      (Conc.Scheduler.round_robin ())
  in
  Alcotest.(check bool) "fuel exhausted" true
    (r.Conc.Exec.outcome = Conc.Exec.Fuel_exhausted)

let test_pct_finds_lost_update () =
  (* PCT with depth 2 hits the racy-counter lost update within a small
     number of seeded trials (probabilistic guarantee ~1/(n*k)). *)
  let cu = Jir.Compile.compile_source Testlib.Fixtures.racy_counter in
  let found = ref false in
  let seed = ref 0 in
  while (not !found) && !seed < 50 do
    incr seed;
    let r, m =
      Conc.Exec.run_program cu ~client_classes:[ "Main" ] ~cls:"Main"
        ~meth:"main"
        (Conc.Scheduler.pct ~seed:(Int64.of_int !seed) ~depth:2
           ~expected_steps:60)
    in
    ignore r;
    match Runtime.Machine.status m 0 with
    | Runtime.Machine.Finished (Some (Runtime.Value.Vint 1)) -> found := true
    | _ -> ()
  done;
  Alcotest.(check bool) "pct exposes the lost update" true !found

let test_pct_deterministic () =
  let run seed =
    let _r, m =
      run_fixture
        ~sched:(Conc.Scheduler.pct ~seed ~depth:3 ~expected_steps:60)
        Testlib.Fixtures.racy_counter
    in
    final_int m
  in
  Alcotest.(check int) "same seed same outcome" (run 9L) (run 9L)

let test_crashes_collected () =
  let src =
    "class A { void boom() { throw \"bang\"; } } class Main { static void \
     main() { A a = new A(); thread t1 = spawn a.boom(); thread t2 = spawn \
     a.boom(); join t1; join t2; } }"
  in
  let r, _m = run_fixture src in
  Alcotest.(check int) "two crashes" 2 (List.length r.Conc.Exec.crashes)

let () =
  Alcotest.run "sched"
    [
      ( "determinism",
        [
          Alcotest.test_case "round robin" `Quick test_round_robin_deterministic;
          seed_determinism;
          replay_matches;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "coarse random" `Quick test_coarse_scheduler_runs;
          Alcotest.test_case "deadlock bounded" `Quick test_deadlock_reported_not_spun;
          Alcotest.test_case "fuel" `Quick test_fuel_exhaustion;
          Alcotest.test_case "crash collection" `Quick test_crashes_collected;
          Alcotest.test_case "pct finds bug" `Quick test_pct_finds_lost_update;
          Alcotest.test_case "pct deterministic" `Quick test_pct_deterministic;
        ] );
    ]
