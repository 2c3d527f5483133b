(** A ConTeGe-style baseline (Pradel & Gross, PLDI'12): fully random
    concurrent test generation with a thread-safety-violation oracle.

    Each generated test builds an object of the class under test with a
    random sequential prefix, then runs two random call suffixes from
    two threads; a test witnesses a *violation* when some interleaving
    crashes or deadlocks while both serializations run cleanly.  Used
    for the §5 comparison: blind search finds almost nothing where
    Narada's directed synthesis finds hundreds of races. *)

type generated = {
  gen_index : int;
  gen_source : string;  (** full Jir program: library + workers + test *)
}

val generate :
  Jir.Program.t ->
  cut:string ->
  lib_source:string ->
  seed:int64 ->
  index:int ->
  generated option
(** Generate the [index]-th random test for the class under test;
    deterministic in (seed, index).  [None] when argument construction
    fails. *)

type verdict =
  | Violation of string  (** concurrent failure absent from serial runs *)
  | Passed
  | Invalid  (** fails sequentially too, or does not compile *)

val check : generated -> schedules:int -> seed:int64 -> verdict
(** The thread-safety-violation oracle: run both serializations, then
    [schedules] seeded random interleavings. *)

type campaign = {
  ca_tests : int;
  ca_valid : int;
  ca_violations : int;
  ca_first_violation : int option;
  ca_example : string option;  (** source of the first violating test *)
}

val default_budget : int
(** Random tests per class in the §5 comparison (200; 1800 over C1-C9). *)

val campaign :
  Corpus.Corpus_def.entry -> budget:int -> schedules:int -> seed:int64 -> campaign
