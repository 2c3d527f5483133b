(** Blind vs coverage-guided confirmation sweeps over a corpus class:
    the same candidate enumeration ({!Detect.Campaign.candidates}), then either the fixed blind
    budget for every occurrence (a test's candidates together, by
    {!Detect.Racefuzzer.confirm_all}), or the guided
    policy sharing one coverage corpus across the class — the full
    {!Detect.Racefuzzer.guided_budget} of blind runs for the first
    occurrence of each race key, zero schedules for recurrences of
    confirmed pairs (their racy-pair feature is in the corpus), and
    {!Detect.Racefuzzer.confirm_guided}'s novelty-plateau runs for
    recurrences of failed keys.
    Guided confirms everything blind confirms, with fewer schedules.
    Backs the serve daemon's confirm requests; test_campaign.ml pins
    both modes' confirmed sets and schedule counts on C1-C9. *)

type mode = Blind of { runs : int } | Guided

type class_confirm = {
  gc_tests : int;
  gc_candidates : int;  (** candidates enumerated (summed over tests) *)
  gc_confirmed : Detect.Race.key list;  (** distinct confirmed races, sorted *)
  gc_schedules : int;  (** directed runs spent *)
}

val confirm_analysis :
  ?schedules:int ->
  ?seed:int64 ->
  mode:mode ->
  Narada_core.Pipeline.analysis ->
  class_confirm
(** The sweep over every test of an analysis: [schedules] (default 2)
    lockset schedules per test from [seed] (default 7).  In guided mode
    one fresh coverage corpus accumulates across the analysis's
    candidates. *)

val confirm_class :
  ?seed:int64 ->
  mode:mode ->
  Corpus.Corpus_def.entry ->
  (class_confirm, string) result
(** {!confirm_analysis} over the entry's analysis
    ({!Evaluate.analyze_entry}) at 2 schedules; a compile or pipeline
    error comes back as [Error]. *)
