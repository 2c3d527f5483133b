(** Intrinsic operations exposed through the reserved pseudo-class [Sys].

    They stand in for the slice of the Java platform library used by the
    benchmark classes: [Sys.randInt], [Sys.print], [Sys.arraycopy],
    [Sys.abs]/[min]/[max], and string helpers [Sys.strlen],
    [Sys.charAt], [Sys.concat]. *)

type t =
  | Rand_int
  | Print
  | Arraycopy
  | Abs
  | Min
  | Max
  | Str_len
  | Char_at
  | Concat

val name : t -> string
val of_name : string -> t option

val check : pos:Ast.pos -> t -> Ast.ty list -> Ast.ty
(** Type-check an intrinsic application; returns the result type.
    @raise Diag.Error on arity or type mismatch. *)
