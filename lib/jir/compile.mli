(** Compiler from the Jir AST to the register bytecode of {!Code}.

    Every field/array access lowers to exactly one access instruction and
    [synchronized] regions lower to explicit [Ienter]/[Iexit], so the
    execution events of compiled code are in 1:1 correspondence with the
    canonical trace operations the Narada analysis consumes. *)

val compile_unit : Ast.program -> Code.unit_
(** Type-check and compile a whole program. *)

val compile_source : string -> Code.unit_
(** Parse, type-check and compile Jir source text. *)
