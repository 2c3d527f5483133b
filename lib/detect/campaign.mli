(** The detection campaign of §5, one synthesized test at a time:
    random schedules with the hybrid lockset detector attached yield
    candidate races ({!candidates}); each candidate then goes to
    RaceFuzzer-style directed confirmation, and a confirmed race is
    triaged ({!confirm_and_triage}).

    This is the only copy of the loop.  Evaluation, guided
    confirmation, repair discovery and re-detection, and the backend
    benchmark all call it with their own budgets (schedules, directed
    runs, seed), so they agree on every race they share a budget for. *)

val candidates :
  ?jobs:int ->
  instantiate:Racefuzzer.instantiator ->
  schedules:int ->
  seed:int64 ->
  unit ->
  ((Race.key * Race.report) list, string) result
(** Run [schedules] fresh instances, each under [Conc.Scheduler.random]
    (schedule 0 at [seed], schedule [i] at [seed] plus [i] times a fixed
    prime stride), and collect the lockset candidates.  Races are
    deduplicated by {!Race.key}, keeping the witness of the earliest
    schedule, and returned in key order.  [jobs] (default 1) fans the
    schedules out over a {!Par} pool; the answer is identical for every
    width.  [Error] when the first instantiation fails. *)

type outcome = {
  o_confirm : Racefuzzer.confirm_result;
  o_verdict : Triage.verdict option;
      (** [None] when the race was not confirmed or triage failed *)
  o_confirm_s : float;  (** wall time of the confirmation *)
  o_triage_s : float;  (** wall time of the triage; 0 when not run *)
}

val confirm_and_triage :
  ?jobs:int ->
  ?fuel:int ->
  instantiate:Racefuzzer.instantiator ->
  runs:int ->
  seed:int64 ->
  Race.report ->
  outcome
(** {!Racefuzzer.confirm} the candidate over [runs] directed runs, then
    {!Triage.triage} it when confirmed.  [fuel] (default 200_000) bounds
    every run of both steps; [jobs] is passed to the confirmation. *)
