(** Register-based bytecode for Jir.

    Each executed instruction corresponds to one canonical trace
    operation of the paper's Fig. 7 (assign / read / write / alloc /
    lock / unlock / invoke / return); the Narada access analysis is a
    fold over the events produced by executing this code. *)

type reg = int

type const = Cint of int | Cbool of bool | Cstr of string | Cnull

type instr =
  | Iconst of reg * const
  | Imove of reg * reg
  | Iget of reg * reg * Ast.id
  | Iset of reg * Ast.id * reg
  | Igetstatic of reg * Ast.id * Ast.id
  | Isetstatic of Ast.id * Ast.id * reg
  | Iaload of reg * reg * reg
  | Iastore of reg * reg * reg
  | Ialen of reg * reg
  | Inew of reg * Ast.id
  | Inewarr of reg * Ast.ty * reg
  | Icall of reg option * reg * Ast.id * reg list
  | Ictor of reg * Ast.id * reg list
  | Icallstatic of reg option * Ast.id * Ast.id * reg list
  | Iintrinsic of reg option * Intrinsics.t * reg list
  | Ibinop of reg * Ast.binop * reg * reg
  | Iunop of reg * Ast.unop * reg
  | Ijmp of int
  | Ibr of reg * int * int
  | Iret of reg option
  | Ienter of reg
  | Iexit of reg
  | Ispawn of reg * reg * Ast.id * reg list
  | Ijoin of reg
  | Iassert of reg * string
  | Ithrow of string

(** A compiled method.  Instance methods receive [this] in register 0
    and parameters in registers 1..n; static methods receive parameters
    in registers 0..n-1. *)
type meth = {
  cm_cls : Ast.id;
  cm_name : Ast.id;
  cm_qname : string;
  cm_static : bool;
  cm_sync : bool;
  cm_nparams : int;
  cm_param_tys : Ast.ty list;
  cm_ret_ty : Ast.ty;
  cm_nregs : int;
  cm_code : instr array;
}

val fieldinit_name : Ast.id
(** Name of the synthetic per-class field-initializer method. *)

type cls = {
  cc_name : Ast.id;
  cc_fields : (Ast.id * Ast.ty) list;
  cc_fieldinit : meth option;
  cc_ctors : (int * meth) list;
  cc_methods : (Ast.id * meth) list;
  cc_static_methods : (Ast.id * meth) list;
  cc_static_fields : (Ast.id * Ast.ty) list;
}

type unit_ = {
  cu_program : Program.t;
  cu_classes : (Ast.id, cls) Hashtbl.t;
  cu_digest : string option Atomic.t;  (** memo of {!digest} *)
}

val find_cls : unit_ -> Ast.id -> cls option
val find_virtual : unit_ -> Ast.id -> Ast.id -> meth option
val find_static : unit_ -> Ast.id -> Ast.id -> meth option
val find_ctor : unit_ -> Ast.id -> arity:int -> meth option

val digest : unit_ -> string
(** Canonical content digest of a unit (hex), computed once per unit:
    equal programs compiled separately have equal digests. *)
