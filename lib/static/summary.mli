(** Per-class summaries for the incremental static tier.

    A summary is a pure function of one class declaration: method
    bodies are walked once in the solver's canonical order and every
    points-to-relevant step becomes a symbolic constraint over boundary
    variables (this/param/return/static/field slots named by qname plus
    per-occurrence temporaries).  Calls stay name-based descriptors and
    conditional lock paths stay symbolic, so a summary never depends on
    any other class — editing one class cannot invalidate another's
    cached summary.  The cheap linking phase ({!Link}) composes
    summaries back into exactly the whole-program facts the old
    monolithic solver computed. *)

open Jir

type wkind = Wnormal | Wctor | Wfieldinit | Wclinit

(** One walkable method of the class (declared concrete method or
    synthetic [<fieldinit>]/[<clinit>]). *)
type msum = {
  ms_name : string;
  ms_qname : string;
  ms_kind : wkind;
  ms_sync : bool;
  ms_static : bool;
  ms_params : (string * string) list;  (** (printed type, name) *)
}

(** A points-to variable: class-local temp, or a boundary slot. *)
type var =
  | Vtemp of int
  | Vthis of string
  | Vret of string
  | Vlocal of string * string  (** (qname, var) *)
  | Vstatic of string * string  (** (cls, field) *)

(** Symbolic Andersen constraints in walk order; call/new constraints
    carry name-based descriptors resolved at link time. *)
type con =
  | Ccopy of var * var
  | Cload of var * var * string
  | Cstore of var * string * var
  | Cnew of int * int * string * int list
      (** (dst temp, local site, class, arg temps) *)
  | Cnewarr of int * int
  | Cicall of int * int * string * int list
  | Cscall of int * string * int list

(** Allocation-site declaration in walk order; global ids are assigned
    at link by per-class concatenation. *)
type sdecl = {
  sd_qname : string;
  sd_cls : string;
  sd_array : bool;
  sd_pos : Ast.pos;
}

(** Lock-path template; [Aglobal] is conditional on the whole-program
    write-once fact settled at link. *)
type alp = Athis | Alocal of string | Aglobal of string * string | Aunknown

type abase = Atemp of int | Astatic of string

(** Access template: the old collector's record with may-point-to sets
    replaced by base-expression temps. *)
type atmpl = {
  at_meth : int;  (** index into [cs_meths] *)
  at_field : string;
  at_kind : Dom.kind;
  at_pos : Ast.pos;
  at_base : abase;
  at_path : alp;
  at_locks : alp list;  (** outermost first *)
  at_regions : int list;  (** class-local region indices, outermost first *)
}

type rtmpl = { rt_meth : int; rt_kind : Dom.region_kind; rt_pos : Ast.pos }

(** Call-graph out-edge descriptors for the escape closure. *)
type edge = Einst of string | Estat of string | Enewed of string * int

type cls = {
  cs_name : string;
  cs_meths : msum list;
  cs_ntemps : int;
  cs_cons : con list;
  cs_sites : sdecl list;
  cs_accs : atmpl list;
  cs_regions : rtmpl list;
  cs_edges : (int * edge list) list;
  cs_roots : string list;  (** spawn target method names *)
  cs_seeds : int list;  (** temps of spawn receivers/arguments *)
  cs_muts : (string * string) list;  (** statics assigned outside <clinit> *)
}

val of_class : Ast.class_decl -> cls
(** Summarize one class; pure, no global state. *)

val digest : Ast.class_decl -> string
(** Content digest (MD5 hex) of the class: canonical pretty-printed
    structure plus all source positions.  The cache key. *)

val ty_of_string : string -> Ast.ty
(** Parse back a type printed by {!Jir.Ast.ty_to_string}. *)

val to_string : cls -> string
val of_string : string -> (cls, string) result
(** Canonical text codec; [of_string (to_string s)] structurally equals
    [s], and serialization is deterministic. *)
