(** Harmful/benign triage of confirmed races, mechanizing the paper's
    manual judgement (§5): a race is benign when forcing the racy
    interleaving cannot change observable state (e.g. resets to
    constants), harmful otherwise (lost updates, crashes,
    order-sensitive state).

    Implementation: over independent instances in one identical initial
    state (one per replay, from [instantiate]), compare the fully
    serialized executions (both orders) with race-forced executions
    (racing accesses back to back, both orders); any difference in the
    canonical heap snapshot or crash set ⇒ harmful.

    Repairability is the second, constructive oracle on top of this
    state-divergence verdict: a race whose synthesized lock fix
    eliminates it under full re-detection is confirmed real by
    construction ([Repair.Engine.constructive]; [lib/repair] sits above
    this library, so the wiring lives in the engine's report, which
    prints both signals per race). *)

type verdict = Harmful | Benign

val verdict_to_string : verdict -> string

val triage :
  instantiate:Racefuzzer.instantiator ->
  cand:Racefuzzer.candidate ->
  ?seed:int64 ->
  ?fuel:int ->
  unit ->
  (verdict, string) result
