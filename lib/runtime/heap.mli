(** The mutable heap of the Jir virtual machine: objects, arrays,
    per-class pseudo-objects holding static fields, and the reentrant
    monitor attached to every heap cell. *)

(** Field positions of one class: a pure function of the class's field
    list.  The machine builds one per class when it compiles a program
    and hands it to every allocation, so every instance of the class on
    every machine (and copy) of the program shares one layout record,
    and a resolved slot can be cached behind a physical-equality check
    on the layout. *)
type layout = {
  l_cls : Jir.Ast.id;
  l_names : Jir.Ast.id array;  (** declaration order *)
  l_tys : Jir.Ast.ty array;
  l_defaults : Value.t array;  (** initial value per slot *)
}

type obj_kind =
  | Kobject of { cls : Jir.Ast.id; layout : layout; fields : Value.t array }
  | Karray of { elt : Jir.Ast.ty; data : Value.t array }
  | Kclassobj of { cls : Jir.Ast.id; layout : layout; fields : Value.t array }

type monitor = { mutable owner : Value.tid option; mutable depth : int }

type cell = { addr : Value.addr; kind : obj_kind; monitor : monitor }

type t

exception Fault of string
(** Heap faults (null dereference, bounds, type confusion); the machine
    turns them into thread crashes. *)

val create : unit -> t

val cell : t -> Value.addr -> cell
(** One bounds check and one array read: addresses are dense. *)

val make_layout : Jir.Ast.id -> (Jir.Ast.id * Jir.Ast.ty) list -> layout
(** The layout of a class with these fields, in declaration order.  A
    fresh record: callers make one per class and share it. *)

val layout_names : layout -> Jir.Ast.id array

val alloc_object : t -> layout:layout -> Value.addr
(** An instance of [layout]'s class, its fields at their defaults. *)

val alloc_array : t -> elt:Jir.Ast.ty -> len:int -> Value.addr

val alloc_classobj : t -> layout:layout -> Value.addr
(** The holder of a class's static fields; [layout] lists them. *)

val class_of : t -> Value.addr -> Jir.Ast.id option
(** [None] for arrays. *)

val is_array : t -> Value.addr -> bool
val get_field : t -> Value.addr -> Jir.Ast.id -> Value.t

type field_cache
(** Per-access-site inline cache: a resolved (layout, slot) pair behind
    a physical-equality check on the layout.  Safe to share across
    machines and domains (racing refills are benign); since layouts are
    shared too, a site that sees one class fills its cache once.  Faults
    are byte-identical to the uncached accessors. *)

val new_field_cache : unit -> field_cache
val get_field_cached : t -> field_cache -> Value.addr -> Jir.Ast.id -> Value.t

val set_field_cached :
  t -> field_cache -> Value.addr -> Jir.Ast.id -> Value.t -> unit

val array_len : t -> Value.addr -> int
val array_get : t -> Value.addr -> int -> Value.t
val array_set : t -> Value.addr -> int -> Value.t -> unit

val try_enter : t -> Value.addr -> tid:Value.tid -> bool
(** Attempt to acquire (or re-enter) the monitor; [false] if held by
    another thread. *)

val exit : t -> Value.addr -> tid:Value.tid -> unit
val monitor_owner : t -> Value.addr -> Value.tid option
val monitor_free_or_mine : t -> Value.addr -> tid:Value.tid -> bool
val size : t -> int

val copy : t -> t
(** An independent heap holding the same cells at the same addresses:
    field and array contents and monitors are copied, layouts are
    shared with the original.  Its cell array is sized to the cells in
    use and grows on the first allocation.  Reads the original only, so
    several domains may copy one heap at once. *)
