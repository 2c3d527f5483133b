(** Harmful/benign triage of confirmed races, mechanizing the paper's
    manual judgement (§5): a race is benign when forcing the racy
    interleaving cannot change observable state (e.g. resets to
    constants), harmful otherwise (lost updates, crashes,
    order-sensitive state).

    Four outcomes are compared, all from one identical initial state:
    the two fully serialized executions (racy threads in order, then
    reversed) and the two race-forced executions (the racing accesses
    back to back, in both orders, where the directed run at the
    campaign seed poises them); any difference in the canonical heap
    snapshot, the crash set or the racy threads' results ⇒ harmful.

    The serialized baselines depend on the test only, so they are
    computed once per test ({!baselines}).  The forced runs are forked
    from where the confirmation's run 0 stopped ({!forced}), as soon as
    it stops: the poised machine and scheduler RNG are copied once, one
    order runs on the copy and the other on the original.  A run 0 that
    did not confirm yields one outcome, which serves as both forced
    outcomes.  Every outcome equals that of a from-scratch replay.

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

type evidence = {
  e_serial : outcome;
  e_serial_rev : outcome;
  e_forced : outcome;  (** the first racing access, then the second *)
  e_forced_rev : outcome;  (** the second racing access, then the first *)
}

val forced : Racefuzzer.run_end -> outcome * outcome
(** Both forced outcomes, the first racing access first and then the
    reverse, from where a directed run at the campaign seed stopped,
    consuming its machine and RNG: execute the poised accesses back to
    back, finish the run under random scheduling from its RNG with the
    fuel it had left, then run any runnable thread in creation order
    for {!Racefuzzer.fuel} steps ({!Conc.Scheduler.prioritized}).  A
    run that stopped without confirming is run in creation order once,
    and that outcome is both. *)

val evidence : baselines -> outcome * outcome -> evidence
(** The baselines beside the two {!forced} outcomes. *)

val judge : evidence -> verdict
(** [Harmful] when any outcome differs from [e_serial]. *)

val triage :
  instantiate:Racefuzzer.instantiator ->
  cand:Racefuzzer.candidate ->
  ?seed:int64 ->
  unit ->
  (verdict, string) result
(** One race from scratch: {!baselines}, then its own directed run at
    [seed] (default 7) on a fresh instance, then {!forced}.
    {!Racefuzzer.fuel} bounds every run.  The campaign
    ([Campaign.confirm_and_triage]) shares the baselines across a
    test's races and forks from each candidate's confirmation run 0
    instead. *)
