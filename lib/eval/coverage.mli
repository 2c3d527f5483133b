(** Per-class interleaving coverage: which racy pairs, HB edges, lock
    orders, and postponed-set states the synthesized tests of a corpus
    entry actually exercise: one random run per test at [seed] (default
    7), then directed runs of at most {!Detect.Racefuzzer.fuel} steps.
    Deterministic for every [jobs] value (coverage-set union is
    commutative; units merge in test order). *)

type class_cov = {
  cc_entry : Corpus.Corpus_def.entry;
  cc_tests : int;
  cc_cov : Cov.Set.t;
}

val class_coverage :
  ?seed:int64 -> Corpus.Corpus_def.entry -> (class_cov, string) result
(** One entry's coverage, its tests run on the calling domain. *)

val coverage_corpus :
  ?seed:int64 ->
  ?jobs:int ->
  Corpus.Corpus_def.entry list ->
  (Corpus.Corpus_def.entry * (class_cov, string) result) list
(** Every entry's coverage, in input order, from one fan-out of [jobs]
    (default 1) worker domains over the flat (class, test) list.  Also
    records stable counters [cov/<id>/<kind>] into the global
    registry — the payload pinned by [test/cram/cov.t]. *)

val table :
  (Corpus.Corpus_def.entry * (class_cov, string) result) list -> string
