(** Evaluation harness: reproduces the measurements of §5 for one
    benchmark class — the Table 4 synthesis columns and the Table 5
    detection columns (detected / reproduced / harmful / benign), plus
    the per-test race counts behind Figure 14.

    Detection runs through {!Detect.Campaign}, the one driver every
    entry point shares; only the budget differs.  The constructive
    counterpart of these counts is [narada repair]
    ([Repair.Engine.repair_all]), which discovers races at its own
    budget (2 schedules, 6 directed runs), not this harness's default 3
    schedules.  Measured on C1–C9: this harness reproduces 660 keys at
    its default budget and 659 at [opt_schedules = 2] (seed 7); repair's
    targets are exactly those 659 keys folded to race ids (434 at seed
    7, 437 at seed 42), and it closes each of them with a minimal-cost
    synchronization patch.  [test/test_campaign.ml] pins these
    figures. *)

type race_outcome = {
  ro_key : Detect.Race.key;
  ro_reproduced : bool;  (** confirmed by the directed scheduler *)
  ro_verdict : Detect.Triage.verdict option;  (** for reproduced races *)
}

type test_eval = {
  te_test : Narada_core.Synth.test;
  te_instantiated : bool;
  te_races : race_outcome list;  (** distinct races this test detected *)
}

type class_eval = {
  cl_entry : Corpus.Corpus_def.entry;
  cl_methods : int;
  cl_loc : int;
  cl_pairs : int;
  cl_pairs_pruned : int;  (** pairs dropped by the static filter (0 when off) *)
  cl_static_filter : bool;
  cl_tests : int;
  cl_seconds : float;  (** synthesis time *)
  cl_detect_seconds : float;
      (** detection time summed over the class's tests: total work, which
          exceeds wall-clock time when [opt_jobs] runs tests in parallel *)
  cl_test_evals : test_eval list;
  cl_detected : int;  (** distinct races across all tests *)
  cl_reproduced : int;
  cl_harmful : int;
  cl_benign : int;
}

type options = {
  opt_schedules : int;  (** random schedules per test for detection *)
  opt_confirm_runs : int;  (** directed runs per candidate *)
  opt_seed : int64;
  opt_jobs : int;
      (** width of {!evaluate_corpus}'s one fan-out over the flat
          (class, test) list; each test's detection runs on one domain.
          Results are identical for every width. *)
  opt_static_filter : bool;
      (** intersect generated pairs with the static analyzer's
          candidate set before synthesis; [cl_pairs_pruned] reports
          how many were dropped *)
  opt_backend : Backend.kind;  (** the one engine, {!Backend.Compiled} *)
}

val default_options : options
(** 3 schedules, 6 confirmation runs, seed 7, jobs 1, no static
    filter.  The filter's analyses run without a summary cache; a
    cached analysis goes through {!analyze_entry}. *)

val evaluate_test :
  options -> Narada_core.Pipeline.analysis -> Narada_core.Synth.test -> test_eval

val analyze_entry :
  ?static_filter:bool ->
  ?static_cache:Static.Cache.t ->
  ?backend:Backend.kind ->
  Corpus.Corpus_def.entry ->
  (Jir.Code.unit_ * Narada_core.Pipeline.analysis, string) result
(** Compile the entry (through the registry's shared cache) and run
    {!Narada_core.Pipeline.analyze} from its seed method; a compile
    error comes back as [Error]. *)

val map_tests :
  jobs:int ->
  ('e * ('u * Narada_core.Pipeline.analysis, string) result) list ->
  (Narada_core.Pipeline.analysis -> Narada_core.Synth.test -> 'a) ->
  ('e * ('u * Narada_core.Pipeline.analysis * 'a list, string) result) list
(** The one fan-out of a corpus sweep: [f] over every test of every
    analyzed entry, on [jobs] worker domains over the flat
    (entry, test) list.  Each entry comes back with its tests' results
    in test order; an [Error] entry stays as it is. *)

val evaluate_corpus :
  ?opts:options ->
  Corpus.Corpus_def.entry list ->
  (Corpus.Corpus_def.entry * (class_eval, string) result) list
(** Evaluate a whole corpus, fanning the flat (class, test) detection
    work list out over [opt_jobs] worker domains.  Results are
    returned in input order and are bit-identical for every job count;
    [cl_detect_seconds] aggregates per-test detection time (total work,
    not wall-clock) so it remains meaningful under parallelism. *)

val evaluate_class :
  ?opts:options -> Corpus.Corpus_def.entry -> (class_eval, string) result
(** {!evaluate_corpus} of the one entry. *)

val fig14_distribution : class_eval -> (string * float) list
(** Percentage of the class's tests per bucket of detected races. *)

(** Ablation of the shareObjects/context phase: tests exposing at least
    one candidate race on a seeded execution, with and without it. *)
type ablation_row = {
  ab_id : string;
  ab_with_context : int;
  ab_without_context : int;
  ab_tests : int;
}

val ablation : Corpus.Corpus_def.entry -> (ablation_row, string) result
val ablation_table : ablation_row list -> string
