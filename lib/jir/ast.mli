(** Abstract syntax for Jir, the Java-like object language used as the
    substrate for the Narada reproduction.

    Jir covers exactly the fragment of Java that the paper's analysis
    reasons about: classes with (possibly [synchronized]) methods, single
    inheritance, interfaces, constructors, instance and static fields,
    arrays, explicit [synchronized] blocks, and a [spawn]/[join] construct
    used by multithreaded client programs (including the tests Narada
    synthesizes). *)

(** Source position (1-based line, 0-based column). *)
type pos = { line : int; col : int }

val dummy_pos : pos
val pp_pos : Format.formatter -> pos -> unit

type id = string

(** Types.  [Tstr] is an opaque immutable string type (used for messages),
    [Tthread] is the type of [spawn] handles. *)
type ty =
  | Tint
  | Tbool
  | Tstr
  | Tvoid
  | Tclass of id
  | Tarray of ty
  | Tthread

val equal_ty : ty -> ty -> bool
val pp_ty : Format.formatter -> ty -> unit
val ty_to_string : ty -> string

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or

type unop = Not | Neg

type expr = { desc : expr_desc; pos : pos }

and expr_desc =
  | Eint of int
  | Ebool of bool
  | Estr of string
  | Enull
  | Ethis
  | Evar of id
  | Efield of expr * id  (** also covers [.length] on arrays *)
  | Estatic_field of id * id
  | Eindex of expr * expr
  | Ecall of expr * id * expr list
  | Estatic_call of id * id * expr list
  | Enew of id * expr list
  | Enew_array of ty * expr
  | Ebinop of binop * expr * expr
  | Eunop of unop * expr

type lvalue =
  | Lvar of id
  | Lfield of expr * id
  | Lstatic of id * id
  | Lindex of expr * expr

type stmt = { sdesc : stmt_desc; spos : pos }

and stmt_desc =
  | Sdecl of ty * id * expr option
  | Sassign of lvalue * expr
  | Sexpr of expr
  | Sif of expr * block * block
  | Swhile of expr * block
  | Sfor of stmt option * expr option * stmt option * block
      (** [for (init; cond; update) body]; the update slot is an
          assignment or call statement without its semicolon *)
  | Sbreak
  | Scontinue
  | Sreturn of expr option
  | Ssync of expr * block
  | Sassert of expr
  | Sthrow of string
  | Sspawn of id * expr * id * expr list
      (** [thread t = spawn recv.m(args);] — spawn a thread running a
          single method invocation, as in the paper's synthesized tests. *)
  | Sjoin of expr

and block = stmt list

type method_decl = {
  m_name : id;
  m_static : bool;
  m_sync : bool;
  m_abstract : bool;  (** interface method without a body *)
  m_ret : ty;
  m_params : (ty * id) list;
  m_body : block;
  m_pos : pos;
}

type field_decl = {
  f_name : id;
  f_static : bool;
  f_ty : ty;
  f_init : expr option;
  f_pos : pos;
}

type class_kind = Kclass | Kinterface

type class_decl = {
  c_name : id;
  c_kind : class_kind;
  c_super : id option;
  c_impls : id list;
  c_fields : field_decl list;
  c_methods : method_decl list;
  c_pos : pos;
}

type program = class_decl list

val ctor_name : id
(** Internal name given to constructors ("<init>"). *)

val is_ctor : method_decl -> bool

val mk_expr : ?pos:pos -> expr_desc -> expr
val mk_stmt : ?pos:pos -> stmt_desc -> stmt

val binop_to_string : binop -> string
val unop_to_string : unop -> string

(** Structural size metrics: 1 per statement/expression node (plus 1 per
    declaration).  Used by the Crucible fuzzer to size-direct shrinking
    and report how much a counterexample was reduced. *)

val block_size : block -> int
val program_size : program -> int
