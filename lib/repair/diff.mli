(** Minimal line-based unified diff, for printing repair patches.
    Deterministic, dependency-free; quadratic LCS is fine at Jir program
    sizes. *)

val unified : original:string -> patched:string -> string
(** Unified diff of the two texts (split on ['\n']), labelled
    [original] and [repaired], with 2 lines of context.  Returns [""]
    when the texts are equal. *)
