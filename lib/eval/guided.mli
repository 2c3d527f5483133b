(** Race confirmation over a corpus class, each race key confirmed
    once: per synthesized test, the candidates of
    {!Detect.Campaign.candidates} (2 lockset schedules) whose key no
    earlier test of the class confirmed, together over 6 directed runs
    by {!Detect.Racefuzzer.confirm_all}.  A batch gives each candidate
    exactly its own runs, so the confirmed keys are those of confirming
    every candidate of every test.  Backs the serve daemon's confirm
    requests and Crucible's campaign-agreement oracle;
    test_campaign.ml pins the confirmed sets and schedule counts on
    C1-C9. *)

type class_confirm = {
  gc_tests : int;
  gc_candidates : int;  (** candidates enumerated (summed over tests) *)
  gc_confirmed : Detect.Race.key list;  (** distinct confirmed races, sorted *)
  gc_schedules : int;  (** directed runs spent *)
}

val confirm_analysis :
  ?seed:int64 -> Narada_core.Pipeline.analysis -> class_confirm
(** The sweep over every test of an analysis, its lockset schedules and
    directed runs seeded from [seed] (default 7). *)

val confirm_class :
  ?seed:int64 -> Corpus.Corpus_def.entry -> (class_confirm, string) result
(** {!confirm_analysis} over the entry's analysis
    ({!Evaluate.analyze_entry}); a compile or pipeline error comes back
    as [Error]. *)
