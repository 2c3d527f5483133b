(** Differential oracles: invariants the whole stack depends on, checked
    end-to-end on one generated program.

    Each oracle either passes or fails with a human-readable detail
    string.  Oracles are pure functions of (program, seed): every VM or
    scheduler seed they use is derived from the given base seed with
    {!Par.seed}, so verdicts are reproducible and independent of how the
    campaign is parallelized. *)

type verdict = Pass | Fail of string

(** A fault injection for self-testing the harness.  [Drop_join] and
    [Drop_release] corrupt the event stream FastTrack observes (the
    other detectors and the naive oracle see the pristine trace);
    [Static_drop_sync] and [Static_stale_cache] plant an unsoundness
    inside the static race analyzer itself; [Repair_overlock] breaks
    the repair engine's cost-order search discipline; [Instance_alias]
    breaks the isolation of synthesized-test instances; [Test_alias]
    the per-test scope of the campaign's triage state; [Late_attach]
    loses events where a run switches from unobserved to observed;
    [Mask_drop_write] hides [Write] from a synchronization-and-access
    observer;
    [Guided_seed] gives one detection entry point seeds of its own.  A
    campaign run
    with a mutation must report disagreement — proving the differential
    oracle would catch a real bug of that class. *)
type mutation =
  | Drop_join  (** hide [Joined] events: lost join happens-before edges *)
  | Drop_release  (** hide [Unlock] events: lost release→acquire edges *)
  | Static_drop_sync
      (** drop sync-region accesses from static candidate generation *)
  | Static_stale_cache
      (** key summary-cache entries by class name instead of content
          digest, so edited classes reuse stale summaries *)
  | Repair_overlock
      (** make the repair engine try candidates in reverse cost order,
          so it accepts a needlessly coarse (non-minimal) repair *)
  | Instance_alias
      (** make the synthesis-replay oracle's instantiator hand out its
          template machine itself instead of a copy, so a second
          instance is the first one after its run *)
  | Test_alias
      (** make the synthesis-replay oracle hand every synthesized test
          the first test's campaign state (instantiator and triage
          baselines), so later tests are triaged on the wrong instances *)
  | Late_attach
      (** make the observer-diff oracle let one more step run
          unobserved after the label it compares from, so the events of
          that step are lost *)
  | Mask_drop_write
      (** make the observer-diff oracle hide [Write] events from its
          synchronization-and-access observer, as a machine whose
          interest left out a kind its observers read would *)
  | Guided_seed
      (** make the campaign-agreement oracle seed Guided's lockset
          schedules one higher than the other entry points' *)

val mutation_of_string : string -> (mutation, string) result
val mutation_to_string : mutation -> string

val names : string list
(** Oracle names, in the order {!check} runs them. *)

val check :
  ?mutate:mutation -> seed:int64 -> Jir.Ast.program -> (string * verdict) list
(** Run every oracle on the program; one [(name, verdict)] pair per
    entry of {!names}, in order:

    - ["roundtrip"]: pretty → parse → pretty is the identity at
      whole-program scale;
    - ["typecheck"]: the printed program type-checks and compiles;
    - ["vm-determinism"]: two runs of [Main.main] under the same seeded
      random scheduler produce byte-identical traces, outputs, step
      counts and outcomes;
    - ["detectors-agree"]: FastTrack, Djit+ and a naive O(n²)
      full-history happens-before oracle flag exactly the same racy
      variables on the recorded multithreaded trace;
    - ["lockset-superset"]: lockset candidate pairs cover every
      happens-before race on the same trace;
    - ["static-superset"]: the static race analyzer's candidate set
      covers every FastTrack race of an un-mutated run, at the (field,
      unordered method pair) granularity — a machine-checked soundness
      bound for the analyzer;
    - ["synthesis-replay"]: the Narada pipeline runs on the sequential
      seed test, and every synthesized test instantiates; the first two
      instances its instantiator hands out (the second taken after the
      first ran to completion) each match a fresh
      {!Narada_core.Synth.instantiate} — same initial heap from the
      roots, labels used and output, and the same outcome, steps,
      output and FastTrack race keys under one seeded random schedule;
      and the campaign's shared-prefix confirmation of each candidate
      equals its own from-scratch directed runs (report, runs used,
      steps), and its triage equals four fresh replays;
    - ["observer-diff"]: observing does not change a run, and an
      observer attached mid-run sees what a run observed from the start
      shows from that point — same outcome, steps, crashes, output and
      labels used whether a trace recorder and FastTrack observe from
      the start or attach halfway through, and the late observers see
      exactly the events from the attach label on, with the same race
      keys;
    - ["static-incremental"]: re-analyzing the program through a
      summary cache warmed on a one-statement-edited variant yields a
      candidate list byte-identical to a from-scratch run, in both the
      closed and the open world — the invalidation soundness bound for
      the digest-keyed cache;
    - ["repair-closes"]: every race the detection pipeline confirms is
      closed by the repair engine — the synthesized patch eliminates
      the race under re-detection with no new
      lock-order pair — and the accepted patch is minimal: every
      cheaper grammar candidate was tried and rejected;
    - ["campaign-agreement"]: at one seed and one budget (2 lockset
      schedules, 6 directed runs), {!Eval.Evaluate} and
      {!Eval.Guided} confirm the same race keys, and repair discovery's
      targets are exactly those keys folded to race ids. *)

val fails_oracle :
  ?mutate:mutation -> seed:int64 -> oracle:string -> Jir.Ast.program -> bool
(** Does this specific oracle fail on the program?  The shrinker's
    predicate: candidates must keep failing the oracle that flagged the
    original program. *)

val coverage : seed:int64 -> Jir.Ast.program -> Cov.Set.t
(** Interleaving coverage of one seeded multithreaded execution of the
    program (same derived VM/scheduler seeds as the oracles): HB-edge
    and lock-order features from the recorded trace, racy-pair features
    from the lockset candidates.  Empty if the program does not
    compile.  The guided campaign's novelty signal. *)
