(** Race-directed randomized scheduling, after RaceFuzzer (Sen, PLDI'08).

    Given a candidate racy pair (from the lockset pass), run the program
    under a random scheduler that postpones any thread about to perform
    a matching access; when two threads are simultaneously postponed at
    conflicting accesses to the same variable the race is real and is
    reported, and the run stops there with both accesses poised.

    Until some runnable thread is poised at a matching access, a
    directed run picks exactly as a plain random run does, so the
    candidates of one test share that prefix: {!directed_runs} runs it
    once per scheduler seed and forks each candidate off it where it
    first matches. *)

(** A prepared execution: a machine whose racy threads exist but have
    not been scheduled yet, plus the observable roots for triage. *)
type instance = {
  ri_machine : Runtime.Machine.t;
  ri_threads : Runtime.Value.tid list;
  ri_roots : Runtime.Value.t list;
}

type instantiator = unit -> (instance, string) result
(** Returns a fresh instance in an identical initial state on every
    call, sharing no mutable state with earlier ones (the synthesizer's
    instantiators copy one template machine per call). *)

val fuel : int
(** 200,000: the step bound of every directed run ({!confirm_all}, and
    {!confirm} in the benchmark harness),
    every triage run ([Triage.baselines], [Triage.forced],
    [Triage.triage]), every coverage-collecting directed run
    ({!directed_run_cov} in [Eval.Coverage]) and repair's seed
    recording ([Repair.Engine.record]).  Triage forks from where a
    confirmation's run 0 stopped, with the fuel it had left, so the two
    agree with a from-scratch replay only at one shared bound.  The
    loops below that take [~fuel] count the fuel left. *)

(** What to look for: a field name, optionally narrowed to two sites. *)
type candidate = {
  c_field : Jir.Ast.id;
  c_sites : (Runtime.Event.site * Runtime.Event.site) option;
}

val candidate_of_report : Race.report -> candidate
val matches : candidate -> Runtime.Machine.pending_access -> bool

type run_stats = { rs_steps : int; rs_max_postponed : int }
(** Per-execution facts: steps taken and the postponed-set high-water
    mark.  Deterministic given the machine and seed. *)

type run_end = {
  re_inst : instance;  (** its machine, stopped where the run stopped *)
  re_rng : Rng.t;  (** the scheduler's RNG at that point *)
  re_fuel : int;  (** fuel left *)
  re_report : Race.report option;
      (** [Some r]: confirmed, and the threads [r.r_first.a_tid] and
          [r.r_second.a_tid] are poised at their racing accesses;
          [None]: the run ended (completion, deadlock or fuel) without
          confirming *)
}
(** Where a directed run stopped.  Stepping its machine on from there
    under plain random scheduling from its RNG
    ([Conc.Exec.run ~fuel:re_fuel m (Conc.Scheduler.of_rng re_rng)])
    continues the run exactly as if it had never stopped, postponing
    nothing; so does {!continue_run}, postponing as before. *)

val directed_run :
  instance -> cand:candidate -> seed:int64 -> fuel:int -> run_end * run_stats
(** One directed execution of the instance, stopping at the first
    simultaneously enabled conflicting pair; every choice is a draw
    from the scheduler's RNG, seeded [seed].  {!directed_run_cov} runs
    the same loop with a coverage observer. *)

val continue_run :
  instance ->
  Rng.t ->
  cand:candidate ->
  on_postponed:((Runtime.Value.tid, Runtime.Machine.pending_access) Hashtbl.t -> unit) ->
  start:int ->
  fuel:int ->
  run_end * run_stats
(** The postponing loop from the instance's machine as it stands, every
    choice drawn from the RNG, for at most [fuel] steps; [start] is the
    steps the run has already taken, so report labels and [rs_steps]
    count from the start of the run.  [on_postponed] sees the table of
    postponed threads and their pending accesses each time it changes
    (its fold order decides which conflicting pair is reported); the
    library passes [ignore], and the tests hold the sequence of tables
    against a reference loop.  The postponed set is rebuilt from
    the machine, so continuing a {!directed_run} stopped after [k] steps
    (its machine, its RNG, the fuel it had left, [start = k]) gives the
    whole run's report, [rs_steps], fuel left, RNG state and end state.
    One proviso: with three or more threads postponed at once, which
    conflicting pair is reported follows the postponed table's fold
    order, which a table rebuilt at [k] need not share with one built
    over the whole run (the corpus never postpones more than two; a
    {!directed_runs} fork starts from an empty set, so it is exact
    regardless).  [directed_run] is [continue_run] on a fresh RNG from
    step 0. *)

val directed_runs :
  instance ->
  cands:candidate array ->
  seed:int64 ->
  fuel:int ->
  (int list -> run_end -> run_stats -> unit) ->
  int
(** The {!directed_run}s of every candidate at one [seed], from one
    instance, each exactly as from scratch.  One plain random run is
    shared while no candidate matches ([Conc.Scheduler.random]'s pick,
    from an RNG seeded [seed]).  Before each of its picks, every
    candidate that some runnable thread is now poised at a matching
    access for forks: a [Machine.copy] and [Rng.copy] of the shared run
    go on with {!continue_run} from that step, with the fuel left.  A
    step can newly poise only the thread that took it, or a thread it
    spawned, so after the first pick the shared run looks at the thread
    that stepped, and scans every live thread only when the step changed
    the live list; a report-derived candidate is compared with a
    thread's top-frame site before its pending access is decoded.  Each fork runs
    to its end and is handed to the callback, with its candidate's index,
    before the shared run continues; the last candidate to fork takes the
    shared machine and RNG themselves.  Candidates that never match share
    the shared run's end, handed over once with all their indices: no
    report, [rs_steps] the shared steps, [rs_max_postponed] 0.  The
    instance's machine is consumed.  Returns the VM steps executed: the
    shared run's, plus each fork's after its fork. *)

type confirm_result = {
  confirmed : Race.report option;
  runs_used : int;
  steps : int;  (** VM steps over the logical prefix of runs executed *)
}

val confirm_all :
  instantiate:instantiator ->
  cands:candidate array ->
  runs:int ->
  seed:int64 ->
  settle:(run_end -> 'a) ->
  (confirm_result * 'a option) array
(** Attempt to confirm every candidate of one test over [runs] directed
    runs of at most {!fuel} steps, run [i] at scheduler seed
    [seed + i·7919] on a fresh instance,
    the candidates still unconfirmed sharing it ({!directed_runs}).  Each
    candidate's result, in [cands] order, is what a batch of that
    candidate alone would get: its confirming report, if any, the runs
    up to and including the confirming one, and their steps.  Where
    run 0 stopped goes to [settle] as soon as it stops, confirmed or
    not, once per distinct machine (candidates that never matched share
    one call and its value); the result carries that value, [None] when
    run 0 could not be instantiated.  A run takes only the candidates
    no earlier run confirmed, and the runs stop at an instantiation
    failure.  Adds the VM steps
    executed to the stable counter ["racefuzzer/vm_steps"], once per
    call: the shared runs' steps plus each fork's after its fork, the
    same at every [--jobs] since the runs of one call are sequential. *)

val confirm :
  instantiate:instantiator ->
  cand:candidate ->
  ?runs:int ->
  ?seed:int64 ->
  ?jobs:int ->
  unit ->
  confirm_result
(** Attempt to confirm the candidate over [runs] (default 10) directed
    runs with different scheduler seeds, from [seed] (default 7):
    {!confirm_all} of one candidate.  Only the frozen benchmark harness
    ([perfbench/campaign.ml]) still calls it; everything else confirms
    through {!confirm_all}.  [jobs] is accepted and ignored: the runs
    are sequential, and callers fan out over tests or races instead.
    The function and its label stay until the benchmark harness stops
    calling it. *)

(** {2 Coverage observation} *)

type run_cov = {
  rc_report : Race.report option;
  rc_stats : run_stats;
  rc_cov : Cov.Set.t;  (** interleaving coverage of this execution *)
}

val directed_run_cov :
  Runtime.Machine.t -> cand:candidate -> seed:int64 -> fuel:int -> run_cov
(** {!directed_run}'s loop on the instance's machine at the same seed,
    with an observer: interleaving coverage (postponed-set states, racy
    pairs, HB edges, lock orders from an attached-and-recycled trace
    recorder) is returned.  The run is {!directed_run}'s: same report,
    stats and final state. *)
