(** Harmful/benign triage of confirmed races, mechanizing the paper's
    manual judgement (§5): a race is benign when forcing the racy
    interleaving cannot change observable state (e.g. resets to
    constants), harmful otherwise (lost updates, crashes,
    order-sensitive state).

    Four outcomes are compared, all from one identical initial state:
    the two fully serialized executions (racy threads in order, then
    reversed) and the two race-forced executions (the racing accesses
    back to back, in both orders, where the directed run at the
    campaign seed poises them); any difference from the first
    serialized execution in the canonical heap snapshot, the crash set
    or the racy threads' results ⇒ harmful.

    The verdict reads that disjunction in order and runs only what it
    still depends on.  The serialized baselines depend on the test
    only, so they are computed once per test ({!baselines}); when they
    differ ({!serial_orders_differ}) every race of the test is harmful
    and its forced orders are not needed.  Otherwise the forced runs are
    forked from where the confirmation's run 0 stopped ({!forced}), as
    soon as it stops: the poised machine and scheduler RNG are copied
    once, one order runs on the copy and the other on the original.  A
    run 0 that did not confirm yields one outcome, which serves as both
    forced outcomes.  Every outcome equals that of a from-scratch
    replay.

    Repairability is the second, constructive oracle on top of this
    state-divergence verdict: a race whose synthesized lock fix
    eliminates it under full re-detection is confirmed real by
    construction ([Repair.Engine.constructive]; [lib/repair] sits above
    this library, so the wiring lives in the engine's report, which
    prints both signals per race). *)

type verdict = Harmful | Benign

val verdict_to_string : verdict -> string

type outcome = {
  o_snapshot : Runtime.Snapshot.t;  (** heap reachable from the roots *)
  o_crashes : string list;  (** crash reasons, sorted *)
  o_returns : string list;  (** the racy threads' results, in thread order *)
}

val observe : Racefuzzer.instance -> outcome
(** The outcome of the instance's machine as it stands. *)

type baselines = { b_serial : outcome; b_serial_rev : outcome }

val baselines : instantiate:Racefuzzer.instantiator -> (baselines, string) result
(** The two serialized executions, each on a fresh instance: the racy
    threads to completion by priority in thread order, then reversed,
    each for at most {!Racefuzzer.fuel} steps.
    Counts one ["triage/replays"] per instance. *)

val serial_orders_differ : baselines -> bool
(** The two serialized executions' outcomes differ: every race of the
    test is then harmful, whatever its forced orders do. *)

type evidence = {
  e_serial : outcome;
  e_serial_rev : outcome;
  e_forced : (outcome * outcome) option;
      (** the two forced outcomes, the first racing access first and
          then the reverse; [None] exactly when the serial orders
          differ, since the verdict does not depend on them then *)
}

val forced : Racefuzzer.run_end -> outcome * outcome
(** Both forced outcomes, the first racing access first and then the
    reverse, from where a directed run at the campaign seed stopped,
    consuming its machine and RNG: execute the poised accesses back to
    back, finish the run under random scheduling from its RNG with the
    fuel it had left, then run any runnable thread in creation order
    for {!Racefuzzer.fuel} steps ({!Conc.Scheduler.prioritized}).  A
    run that stopped without confirming is run in creation order once,
    and that outcome is both.  Needed only when the serial orders
    agree. *)

val evidence : baselines -> (outcome * outcome) option -> evidence
(** The baselines beside the {!forced} outcomes, which are dropped when
    the serial orders differ: a pair computed before the baselines were
    known is not evidence then. *)

val judge : evidence -> verdict
(** [Harmful] when [e_serial_rev] differs from [e_serial], without
    looking further; otherwise when either forced outcome does.  Raises
    [Invalid_argument] on agreeing serial orders beside [e_forced =
    None], which {!evidence} builds only from a missing pair. *)

val triage :
  instantiate:Racefuzzer.instantiator ->
  cand:Racefuzzer.candidate ->
  ?seed:int64 ->
  unit ->
  (verdict, string) result
(** One race from scratch: {!baselines}; only when the serial orders
    agree, its own directed run at [seed] (default 7) on a fresh
    instance, then {!forced}; then {!judge}.  {!Racefuzzer.fuel} bounds
    every run.  The campaign ([Campaign.confirm_and_triage]) shares the
    baselines across a test's races and forks from each candidate's
    confirmation run 0 instead. *)
