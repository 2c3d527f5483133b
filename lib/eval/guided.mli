(** Blind vs coverage-guided confirmation sweeps over a corpus class:
    the same candidate enumeration ({!Detect.Campaign.candidates}), then either the fixed blind
    [Racefuzzer.confirm] budget for every occurrence, or the guided
    policy sharing one coverage corpus across the class — full budget
    for the first occurrence of each race key, zero schedules for
    recurrences of confirmed pairs (their racy-pair feature is in the
    corpus), novelty-plateau runs for recurrences of failed keys.
    Guided confirms everything blind confirms, with fewer schedules.
    Backs BENCH_fuzz.json and the serve daemon's confirm requests. *)

type mode =
  | Blind of { runs : int }
  | Guided of { budget : int; batch : int; plateau : int }

type class_confirm = {
  gc_entry : Corpus.Corpus_def.entry;
  gc_tests : int;
  gc_candidates : int;  (** candidates enumerated (summed over tests) *)
  gc_confirmed : Detect.Race.key list;  (** distinct confirmed races, sorted *)
  gc_schedules : int;  (** directed runs spent *)
}

val confirm_class :
  ?schedules:int ->
  ?seed:int64 ->
  ?jobs:int ->
  ?corpus:Cov.Corpus.t ->
  ?backend:Backend.kind ->
  mode:mode ->
  Corpus.Corpus_def.entry ->
  (class_confirm, string) result
(** Deterministic for every [jobs] value.  In guided mode the [corpus]
    (fresh by default) accumulates coverage across candidates and is
    left holding the final state — save it for replay.  [backend]
    (default {!Backend.default_kind}) selects the execution backend for
    every VM run of the sweep. *)
