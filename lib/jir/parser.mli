(** Recursive-descent parser for Jir.

    The grammar follows Java closely, with one convention: identifiers
    beginning with an uppercase letter denote class/interface names and
    everything else denotes variables, fields and methods.  All entry
    points raise {!Diag.Error} on syntax errors. *)

val parse_program : string -> Ast.program
(** Parse a complete compilation unit (a sequence of class and interface
    declarations). *)
