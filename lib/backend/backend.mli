(** The execution backend: the closure-compiled {!Runtime.Machine}.

    There is one engine.  Every machine runs its program's compiled code
    from creation ({!Runtime.Machine.Compiled}), observed or not; this
    module keeps the names callers written against a choice of engines
    compile against, each now single-valued. *)

type kind = Compiled

val to_string : kind -> string

type t = Runtime.Machine.Compiled.code
(** A program's compiled code. *)

val prepare : kind -> Jir.Code.unit_ -> t
(** {!Runtime.Machine.Compiled.of_unit}: the digest lookup, compiling on
    first use. *)

val on_machine : t -> Runtime.Machine.t -> unit
(** Does nothing: a machine already runs compiled code from creation.
    Shaped for the [?on_machine] hooks of {!Runtime.Interp.record} and
    {!Conc.Exec.run_program}. *)
