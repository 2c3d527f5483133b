(** The benchmark registry: the nine classes of Table 3, in order. *)

val all : Corpus_def.entry list
(** The nine Table 3 classes, C1..C9. *)

val extras : Corpus_def.entry list
(** The footnote-5 openjdk wrapper family (X1..X3): races "very similar
    to SynchronizedCollection", excluded from the paper's tables. *)

val find : string -> Corpus_def.entry option
(** Case-insensitive lookup by id over [all] and [extras]. *)

val ids : string list

val compiled_unit : Corpus_def.entry -> Jir.Code.unit_
(** Memoized compilation of an entry's source, shared by the CLI,
    tests, benchmark and the evaluation harness.  Domain-safe and
    contention-free in the steady state: published units are read from
    an immutable snapshot without locking, compilation happens outside
    the publication lock, and "compile at most once" is preserved.
    Raises [Jir.Diag.Error] like {!Jir.Compile.compile_source} on the
    (never expected) failure to compile a corpus source. *)

val warm : Corpus_def.entry list -> unit
(** Pre-compile the given entries (sequentially, on the calling
    domain).  Campaign entry points call this before fanning out so
    worker domains only ever take the lock-free read path. *)
