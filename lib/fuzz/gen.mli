(** Seeded random generation of well-typed Jir programs ("Crucible"
    inputs).

    Every generated program has the same gross shape as the corpus
    entries the rest of the repo is tested against: a few library
    classes (int fields, optional [int[]] array field, optional
    reference to a previously generated class, plain and [synchronized]
    methods, constructors) plus a [Main] harness class with

    - [Main.seed]: a sequential client method (the "seed test" the
      Narada pipeline analyzes), and
    - [Main.main]: a multithreaded client method that constructs shared
      objects, spawns threads on their methods, joins them and touches
      the shared state again — the input for the VM-determinism and
      detector-agreement oracles.

    Programs are well-typed and crash-free by construction (no division,
    literal in-bounds array indices, bounded loops, acyclic call graph),
    so every oracle failure downstream indicts the substrate, not the
    input. *)

val seed_cls : string
(** The harness class name, ["Main"]. *)

val seed_meth : string
(** The sequential seed method, ["seed"]. *)

val main_meth : string
(** The multithreaded entry point, ["main"]. *)

val generate : seed:int64 -> Jir.Ast.program
(** [generate ~seed] is a deterministic function of [seed]. *)

val to_source : Jir.Ast.program -> string
(** Pretty-print (valid, re-parseable Jir source). *)
