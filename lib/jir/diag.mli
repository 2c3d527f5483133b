(** Diagnostics shared by the Jir front-end (lexer, parser, type
    checker) and by tools reporting findings ([narada lint]). *)

type error = { pos : Ast.pos; msg : string }

exception Error of error

val error : ?pos:Ast.pos -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [error ~pos fmt ...] raises {!Error} with a formatted message. *)

val to_string : error -> string

(** {2 Severities and spans}

    The vocabulary of non-fatal findings: a severity, and a source
    range ([file:line:col] or [file:line:col-line:col]) within one
    compilation unit. *)

type severity = Sev_error | Sev_warning

val severity_to_string : severity -> string

val compare_severity : severity -> severity -> int
(** Errors sort before warnings. *)

type span = { sp_file : string; sp_start : Ast.pos; sp_end : Ast.pos }
(** [sp_file] is whatever name the tool knows the unit by (a path, a
    corpus id); [""] suppresses the file prefix when printing. *)

val span : ?file:string -> Ast.pos -> span
(** [span ~file pos] builds the one-position span at [pos]. *)

val span_to_string : span -> string
val compare_span : span -> span -> int
