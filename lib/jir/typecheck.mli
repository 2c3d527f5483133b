(** Type checker for Jir.

    [check_program] validates a parsed program and returns its class
    table.  The expression-typing entry points are shared with the
    compiler so typing rules live in one place.  All failures raise
    {!Diag.Error}. *)

(** Typing environment for one method body. *)
type env = {
  prog : Program.t;
  cls : Ast.id;
  meth : Ast.method_decl;
  locals : (Ast.id, Ast.ty) Hashtbl.t;
  mutable loop_depth : int;  (** for break/continue placement checks *)
}

val type_of_expr : env -> Ast.expr -> Ast.ty

val check_program : Ast.program -> Program.t
(** Validate the whole program; returns the class table. *)

val make_env :
  Program.t ->
  cls:Ast.id ->
  meth:Ast.method_decl ->
  locals:(Ast.id, Ast.ty) Hashtbl.t ->
  env
