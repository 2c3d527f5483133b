(** Pretty-printer for Jir programs.

    The output is valid Jir source: [Parser.parse_program
    (program_to_string p)] succeeds and yields a program that prints
    identically — the round-trip property checked by the test-suite. *)

val expr_to_string : Ast.expr -> string
val class_to_string : Ast.class_decl -> string
val program_to_string : Ast.program -> string
