(** Per-method summaries of writeable assignments — the aggregated D of
    §3.2.  A setter records that invoking [set_qname] makes the path
    [set_lhs] (rooted at the receiver, a parameter, or the returned
    object) point to the object supplied at [set_rhs]. *)

type setter = {
  set_qname : string;
  set_cls : Jir.Ast.id;
  set_meth : Jir.Ast.id;  (** [Ast.ctor_name] for constructors *)
  set_static : bool;
  set_lhs : Sym.t;
  set_rhs : Sym.t;
  set_ret_cls : Jir.Ast.id option;
      (** concrete class of the returned object, for Ret-rooted setters *)
}

val is_ctor : setter -> bool
val to_string : setter -> string

type t

val of_list : setter list -> t
(** Deduplicates. *)

val setters : t -> setter list
val count : t -> int

val applicable_to : Jir.Program.t -> t -> owner_cls:string -> setter list
(** Receiver-rooted setters whose class is compatible with the owner. *)

val factories : Jir.Program.t -> t -> owner_cls:string option -> setter list
(** Ret-rooted setters producing objects compatible with the owner
    class. *)
