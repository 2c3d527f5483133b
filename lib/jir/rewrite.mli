(** AST rewrite utilities for the synchronization-repair engine
    ([lib/repair]): locate a racy field's accesses inside a method,
    report which locks guard them, and apply the repair grammar's
    primitive edits (synchronize a method, wrap a statement span in
    [synchronized], replace the mutex of an existing wrapper).

    Lock expressions are compared by their canonical printed text
    ({!lock_text}); a method-level [synchronized] counts as holding
    ["this"]. *)

val split_qname : string -> (Ast.id * Ast.id) option
(** ["Cls.meth"] -> [Some ("Cls", "meth")]. *)

val find_method : Ast.program -> cls:Ast.id -> meth:Ast.id -> Ast.method_decl option
(** Concrete (non-abstract) method lookup by defining class. *)

val map_method :
  Ast.program ->
  cls:Ast.id ->
  meth:Ast.id ->
  (Ast.method_decl -> Ast.method_decl) ->
  Ast.program
(** Rewrite one method in place; every other declaration is shared. *)

val lock_text : Ast.expr -> string
(** Canonical text of a lock expression ([Pretty.expr_to_string]). *)

val this_lock : Ast.expr
(** The [this] expression with a dummy position. *)

val portable_lock : Ast.expr -> bool
(** Can this expression be re-used as a monitor operand in {e another}
    instance method of the same class?  True for [this], chains of
    instance fields rooted at [this], and static field paths — false
    for anything touching locals or parameters. *)

val unguarded_top_indices :
  field:Ast.id -> lock:string -> Ast.method_decl -> int list
(** Indices of top-level body statements containing at least one access
    to [field] that is {e not} under a [synchronized] region (or method
    [synchronized]) whose lock prints as [lock]. *)

val guarded_everywhere : field:Ast.id -> lock:string -> Ast.method_decl -> bool
(** Every access to [field] in the method is under [lock]. *)

(** {2 Owner-lock analysis}

    For cross-object races (method A reads [other.f] holding only its
    own monitor) no single lock text guards both sides; the natural
    discipline is "hold the monitor of the object being accessed".
    An access with base expression [b] (the [b] of [b.f] or of
    [b\[i\]]) is owner-guarded when a monitor printing as [b] is held.
    Static-field accesses have no owner object and make the discipline
    inapplicable. *)

val owner_guarded_everywhere : field:Ast.id -> Ast.method_decl -> bool
(** Every access to [field] holds its own base object's monitor.
    False when any access is a static-field access. *)

val owner_unguarded_top :
  field:Ast.id -> Ast.method_decl -> (int list * Ast.expr list) option
(** Top-level statement indices with owner-unguarded accesses, plus the
    distinct base expressions (by printed text) of those accesses.
    [None] if a static-field access makes owner discipline
    inapplicable; [Some ([], [])] when fully guarded. *)

(** {2 Global-lock injection} *)

val global_lock_field : Ast.id
(** Name of the static lock field added to the host class. *)

val add_global_lock : Ast.program -> host:Ast.id -> (Ast.program, string) result
(** Append [class NaradaLock { }] and give [host] a
    [static NaradaLock narada_lock = new NaradaLock();] field.  Errors
    if either name already exists in the program. *)

val sync_locks : Ast.method_decl -> Ast.expr list
(** Every [synchronized] block operand in the method, pre-order. *)

val sync_wrappers_around : field:Ast.id -> Ast.method_decl -> (int * string) list
(** [(occurrence, lock text)] of each [synchronized] block (pre-order
    numbering over the whole method) whose body accesses [field]. *)

val sync_method : Ast.method_decl -> Ast.method_decl
(** Mark the method [synchronized].  Callers must ensure it is an
    instance method and not a constructor. *)

val wrap_span :
  from_:int -> len:int -> lock:Ast.expr -> Ast.method_decl -> Ast.method_decl
(** Replace body statements [from_ .. from_+len-1] with a single
    [synchronized (lock) { ... }] block around them.
    @raise Invalid_argument if the span is out of bounds. *)

val replace_sync_lock :
  occurrence:int -> lock:Ast.expr -> Ast.method_decl -> Ast.method_decl
(** Replace the monitor operand of the [occurrence]-th [synchronized]
    block (pre-order).  @raise Invalid_argument if there is no such
    block. *)
