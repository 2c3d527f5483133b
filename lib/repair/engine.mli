(** The CEGIS-style repair loop: propose candidates from {!Grammar} in
    added-sync cost order, validate each against the full dynamic
    pipeline, keep the first (hence minimal) survivor.

    The seed test runs once per program: {!record} executes it at
    [eo_seed] and {!Detect.Racefuzzer.fuel} and every check reads that
    one recording —
    the original program's gives the baseline and discovery's analysis,
    each patched program's gives its validation stack, cheapest first:
    + the patched program must still compile and type-check;
    + the recorded seed execution must be behavior-preserving
      (identical printed output and result);
    + the lock-order analysis of the recorded trace must introduce no
      new ABBA deadlock pair;
    + re-analysing the recorded trace ({!Narada_core.Pipeline.of_trace})
      and re-running lockset detection + directed confirmation on the
      patched program must no longer confirm the race — and, for
      candidates that replace an existing mutex (the only edit that can
      remove protection), must confirm no race that the original program
      did not already show. *)

type subject = {
  sj_prog : Jir.Ast.program;
  sj_cu : Jir.Code.unit_;
  sj_client_classes : Jir.Ast.id list;
  sj_seed_cls : Jir.Ast.id;
  sj_seed_meth : Jir.Ast.id;
}

val subject_of_unit :
  Jir.Code.unit_ ->
  client_classes:Jir.Ast.id list ->
  seed_cls:Jir.Ast.id ->
  seed_meth:Jir.Ast.id ->
  subject
(** Recovers the AST from the unit's class table. *)

type options = {
  eo_schedules : int;
      (** random schedules per test during discovery and re-detection *)
  eo_confirm_runs : int;  (** directed runs per candidate race *)
  eo_seed : int64;
  eo_jobs : int;
      (** width of the one fan-out over the confirmed races, each
          repaired on one domain; the report is identical for every
          width *)
  eo_backends : Backend.kind list;
      (** re-analysis of the recording and re-detection run once per
          entry; the first also discovers *)
  eo_max_candidates : int;  (** cap on grammar candidates tried per race *)
  eo_overlock : bool;
      (** fault injection for the Crucible oracle: try candidates in
          REVERSE cost order, returning a needlessly coarse repair *)
}

val default_options : options
(** 2 schedules, 6 confirm runs, seed 7, jobs 1, [[Backend.Compiled]],
    16 candidates, overlock off.  Every directed and triage run, and the
    seed recording ({!record}), is bounded by
    {!Detect.Racefuzzer.fuel}. *)

type reject =
  | R_compile of string
  | R_behavior of string
  | R_deadlock of string  (** the offending new lock-order pair *)
  | R_race_survives
  | R_new_race of string

(** The one execution of a program's seed test. *)
type recording = {
  rec_output : string;  (** printed output *)
  rec_result : (Runtime.Value.t option, string) result;
  rec_trace : Runtime.Trace.t;
}

val record : options -> subject -> Jir.Code.unit_ -> recording
(** Run the subject's seed test [sj_seed_cls.sj_seed_meth()] on [cu]
    (the subject's own unit or a patched one) at [eo_seed] for at most
    {!Detect.Racefuzzer.fuel} steps, recording its trace. *)

val lock_pairs : subject -> Runtime.Trace.t -> string list
(** The ABBA lock-order pairs of a recorded trace
    ({!Deadlock.Lockorder.edges_of_trace}, then
    {!Deadlock.Lockorder.pairs_of_edges}), as sorted canonical strings. *)

(** Everything about the original program the validator compares
    against; computed once per subject. *)
type baseline

val baseline_of : options -> subject -> (baseline, string) result
(** The original program's output, result and lock pairs, from one
    {!record}; [Error "seed test failed: ..."] if its seed test fails. *)

type attempt = { at_cand : Grammar.candidate; at_result : (unit, reject) result }

val validate :
  options -> subject -> baseline -> Grammar.race_id -> Grammar.candidate ->
  (Jir.Ast.program, reject) result
(** Run the full validation stack on one candidate; returns the patched
    program on success. *)

type outcome =
  | Repaired of { rc_cand : Grammar.candidate; rc_patched : Jir.Ast.program }
  | No_candidates  (** the grammar is empty for this race *)
  | Not_repairable  (** every candidate tried was rejected *)

type race_repair = {
  rr_id : Grammar.race_id;
  rr_key : Detect.Race.key;  (** witness key from discovery *)
  rr_verdict : Detect.Triage.verdict option;
  rr_outcome : outcome;
  rr_attempts : attempt list;  (** in the order tried *)
}

type report = {
  rp_subject_classes : Jir.Ast.id list;
  rp_tests : int;  (** synthesized tests driven during discovery *)
  rp_detected : int;  (** distinct candidate races detected *)
  rp_confirmed : int;  (** races confirmed, i.e. repair targets *)
  rp_races : race_repair list;
  rp_seconds : float;
}

val repair_all : ?opts:options -> subject -> (report, string) result
(** Discover every confirmed race of the subject (synthesis, then
    {!Detect.Campaign}: lockset → directed confirmation → triage) and
    run the repair loop on each.  Deterministic for a given seed. *)

val constructive : race_repair -> bool
(** A race whose synthesized repair eliminates it under re-detection is
    constructively confirmed real — the repairability signal Triage-level
    reports cite. *)

val report_to_string : ?show_attempts:bool -> subject -> report -> string
