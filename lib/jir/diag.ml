(* Diagnostics shared by the Jir front-end: a single exception type
   carrying a source position and message, raised by the lexer, parser
   and type checker — plus the severity/span vocabulary used by tools
   that report findings without raising (narada lint). *)

type error = { pos : Ast.pos; msg : string }

exception Error of error

let error ?(pos = Ast.dummy_pos) fmt =
  Format.kasprintf (fun msg -> raise (Error { pos; msg })) fmt

let to_string { pos; msg } =
  if pos.Ast.line = 0 then msg
  else Format.asprintf "%a: %s" Ast.pp_pos pos msg

(* ---- severities and spans (lint vocabulary) ---- *)

type severity = Sev_error | Sev_warning

let severity_to_string = function
  | Sev_error -> "error"
  | Sev_warning -> "warning"

let compare_severity a b =
  (* errors sort before warnings *)
  let rank = function Sev_error -> 0 | Sev_warning -> 1 in
  compare (rank a) (rank b)

(* A source range within one compilation unit.  [sp_file] is whatever
   name the tool knows the unit by (a path, a corpus id, "<memory>"). *)
type span = { sp_file : string; sp_start : Ast.pos; sp_end : Ast.pos }

let span ?file:(sp_file = "") (pos : Ast.pos) : span =
  { sp_file; sp_start = pos; sp_end = pos }

(* [file:line:col], or [file:line:col-line:col] for a proper range; no
   [file:] prefix when [sp_file] is empty. *)
let pp_span fmt { sp_file; sp_start; sp_end } =
  if sp_file <> "" then Format.fprintf fmt "%s:" sp_file;
  Format.fprintf fmt "%a" Ast.pp_pos sp_start;
  if sp_end <> sp_start then Format.fprintf fmt "-%a" Ast.pp_pos sp_end

let span_to_string s = Format.asprintf "%a" pp_span s

let compare_span a b =
  compare
    (a.sp_file, a.sp_start.Ast.line, a.sp_start.Ast.col, a.sp_end.Ast.line,
     a.sp_end.Ast.col)
    (b.sp_file, b.sp_start.Ast.line, b.sp_start.Ast.col, b.sp_end.Ast.line,
     b.sp_end.Ast.col)
