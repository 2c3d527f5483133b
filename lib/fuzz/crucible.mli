(** Crucible: the randomized differential-testing campaign.

    Generates [count] programs from a base seed, runs every {!Oracle}
    on each, fans the programs out over {!Par} worker domains, and
    shrinks the smallest-index violation to a minimal counterexample.  The
    whole report — counts, verdicts, the minimal program — is a pure
    function of (count, seed, mutation): byte-identical for every job
    count, so a reported counterexample can always be reproduced by
    re-running with the same seed. *)

type options = {
  o_count : int;  (** programs to generate *)
  o_seed : int64;  (** base seed; per-program seeds are derived *)
  o_jobs : int;  (** worker domains (1 = in-process sequential) *)
  o_mutate : Oracle.mutation option;
      (** optional detector fault injection (harness self-test) *)
}

val default_options : options
(** 200 programs, seed 7, 1 job, no mutation. *)

type violation = {
  vi_index : int;  (** program index within the campaign *)
  vi_oracle : string;
  vi_detail : string;  (** oracle detail on the {e shrunk} program *)
  vi_original_size : int;  (** {!Jir.Ast.program_size} before shrinking *)
  vi_shrunk_size : int;
  vi_shrink_steps : int;
  vi_source : string;  (** the minimal counterexample, as Jir source *)
}

type report = {
  rp_options : options;
  rp_pass : (string * int) list;  (** per-oracle pass counts, in {!Oracle.names} order *)
  rp_failures : (int * string * string) list;
      (** (index, oracle, detail) of each failing program's first
          failing oracle, in index order *)
  rp_min : violation option;  (** the shrunk smallest-index violation *)
}

val run : options -> report

val ok : report -> bool
(** No oracle violations. *)

val report_to_string : report -> string
(** Deterministic rendering (no wall-clock, no job count): identical
    for every [o_jobs]. *)

(** {2 Coverage-guided campaign}

    Replaces blind uniform sampling with a novelty-ranked corpus of
    program seeds: rounds of 8 checks are derived deterministically
    from (options, round, corpus); even slots generate fresh programs,
    odd slots re-check the top-ranked corpus programs under new derived
    check seeds (schedule mutations).  Runs whose interleaving coverage
    ({!Oracle.coverage}) contains anything new are admitted into the
    corpus with their gain.  Stops at the check budget ([o_count]),
    after 3 consecutive novelty-free rounds, or past an optional
    wall-clock budget (round-boundary granularity; a CI bound — with it
    set, the round count is time-dependent).  For a fixed round count
    the report and corpus are byte-identical across job counts and
    reproducible from (seed, corpus snapshot). *)

type guided_report = {
  gr_options : options;
  gr_rounds : int;
  gr_checked : int;  (** checks actually executed (≤ [o_count]) *)
  gr_pass : (string * int) list;
  gr_failures : (int * string * string) list;  (** (slot, oracle, detail) *)
  gr_min : violation option;
  gr_novelty : int;  (** total coverage gain over the campaign *)
  gr_corpus : Cov.Corpus.t;
}

val run_guided :
  ?budget_s:float -> ?corpus:Cov.Corpus.t -> options -> guided_report
(** Defaults: no wall budget, fresh corpus.  Pass [corpus] (e.g. loaded
    from a checkpoint) to resume a campaign. *)

val guided_ok : guided_report -> bool
val guided_report_to_string : guided_report -> string
