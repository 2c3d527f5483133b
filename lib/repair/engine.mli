(** The CEGIS-style repair loop: propose candidates from {!Grammar} in
    added-sync cost order, validate each against the full dynamic
    pipeline, keep the first (hence minimal) survivor.

    Validation stack, cheapest first:
    + the patched program must still compile and type-check;
    + the sequential seed execution must be behavior-preserving
      (identical printed output and result);
    + the lock-order analysis of the patched program must introduce no
      new ABBA deadlock pair;
    + re-running synthesis + lockset detection + directed confirmation
      on the patched program, for every configured backend, must no
      longer confirm the race — and, for candidates that replace an
      existing mutex (the only edit that can remove protection), must
      confirm no race that the original program did not already show. *)

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
  eo_fuel : int;
  eo_seed : int64;
  eo_jobs : int;
      (** fan-out of each test's detection schedules and confirmation
          runs; the report is identical for every width *)
  eo_backends : Backend.kind list;  (** every one must agree the race is gone *)
  eo_max_candidates : int;  (** cap on grammar candidates tried per race *)
  eo_overlock : bool;
      (** fault injection for the Crucible oracle: try candidates in
          REVERSE cost order, returning a needlessly coarse repair *)
}

val default_options : options
(** 2 schedules, 6 confirm runs, fuel 200_000, seed 7, jobs 1, both
    backends, 16 candidates, overlock off. *)

type reject =
  | R_compile of string
  | R_behavior of string
  | R_deadlock of string  (** the offending new lock-order pair *)
  | R_race_survives of Backend.kind
  | R_new_race of Backend.kind * string

val reject_to_string : reject -> string

(** Everything about the original program the validator compares
    against; computed once per subject. *)
type baseline

val baseline_of : options -> subject -> (baseline, string) result

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

val repair_race :
  options -> subject -> baseline -> Grammar.race_id ->
  key:Detect.Race.key -> verdict:Detect.Triage.verdict option -> race_repair

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

val diff_of : subject -> Jir.Ast.program -> string
(** Unified diff between the subject's pretty-printed program and a
    patched program. *)

val report_to_string : ?show_attempts:bool -> subject -> report -> string
