(** The detection campaign of §5, one synthesized test at a time:
    random schedules with the hybrid lockset detector attached yield
    candidate races ({!candidates}); the test's candidates then go
    together to RaceFuzzer-style directed confirmation, each directed
    run shared until a candidate's first matching access, and every
    confirmed race is triaged ({!confirm_and_triage}) from state the
    campaign already holds: serialized baselines once per test, and,
    only while they agree, forced orders forked from each candidate's
    confirmation run 0 as soon as it stops.

    This is the only copy of the loop.  Evaluation, guided
    confirmation, and repair discovery and re-detection all call it
    with their own budgets (schedules, directed
    runs, seed), so they agree on every race they share a budget for. *)

val candidates :
  instantiate:Racefuzzer.instantiator ->
  schedules:int ->
  seed:int64 ->
  unit ->
  ((Race.key * Race.report) list, string) result
(** Run [schedules] fresh instances, each under [Conc.Scheduler.random]
    (schedule 0 at [seed], schedule [i] at [seed] plus [i] times a fixed
    prime stride), and collect the lockset candidates.  Races are
    deduplicated by {!Race.key}, keeping the witness of the earliest
    schedule, and returned in key order.  [Error] when the first
    instantiation fails. *)

type test
(** One synthesized test's campaign state: its instantiator and its
    two serialized triage baselines, computed lazily — only once some
    race of the test is confirmed, and at most once: as soon as a
    candidate's run 0 confirms, or else once confirmation is over.  A
    test belongs to the one domain that confirms it. *)

val test : Racefuzzer.instantiator -> test
(** {!Racefuzzer.fuel} bounds every directed run and every triage run
    of the test. *)

type outcome = {
  o_confirm : Racefuzzer.confirm_result;
  o_evidence : Triage.evidence option;
      (** the triage outcomes the verdict depends on (the forced pair
          only when the serial orders agree); [None] when the race was
          not confirmed or triage failed *)
  o_verdict : Triage.verdict option;  (** {!Triage.judge} of [o_evidence] *)
}

val confirm_and_triage :
  test:test -> runs:int -> seed:int64 -> Race.report list -> outcome list
(** {!Racefuzzer.confirm_all} the test's candidates over [runs] directed
    runs, then triage each confirmed one: the test's baselines, and,
    when its serial orders agree, both forced orders forked from where
    its run 0 stopped (it ran at [seed], exactly the directed prefix a
    from-scratch {!Triage.triage} at [seed] replays), computed as soon
    as that run stopped, so no run-0 machine waits for the others.  A
    run 0 is not settled once the baselines are known to differ.
    Outcomes come in the order of the reports; each confirmation equals
    {!Racefuzzer.confirm}'s, and verdicts and outcomes equal those of
    {!Triage.triage}. *)
