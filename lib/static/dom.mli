(** Shared abstract domain of the static race analyzer: allocation
    sites, lock paths, static access records and racy-pair candidates.

    Everything that reports (aliasing, sharedness, may-happen-in-
    parallel) over-approximates the dynamic semantics; everything that
    suppresses (lock paths) under-approximates.  The Crucible
    static⊇dynamic oracle machine-checks this balance. *)

module Sites : Set.S with type elt = int

type site = int
(** An allocation site, numbered deterministically by the solver. *)

type site_info = {
  si_cls : string;  (** class name, or ["ty[]"] for array sites *)
  si_meth : string;  (** qualified name of the allocating method *)
  si_pos : Jir.Ast.pos;
  si_array : bool;
}

(** A lock (or access base) described by a syntactic path whose value
    cannot change between monitor entry and the guarded access.
    [Lunknown] never matches any lock, including itself. *)
type lpath =
  | Lthis
  | Llocal of string
  | Lglobal of string * string  (** write-once static field [C.f] *)
  | Lunknown

val equal_lpath : lpath -> lpath -> bool
(** Syntactic path equality; [Lunknown] is equal to nothing. *)

type kind = Kread | Kwrite

(** The base of a static access. *)
type base =
  | Binst of Sites.t  (** instance field / array element: may-point-to set *)
  | Bstatic of string  (** static field of the syntactically named class *)

type region_kind = Rsync_method | Rsync_block

(** A synchronized region (sync method body or sync block). *)
type region = {
  rg_id : int;
  rg_qname : string;
  rg_cls : string;
  rg_pos : Jir.Ast.pos;
  rg_kind : region_kind;
}

(** One static field/array access. *)
type acc = {
  sa_id : int;  (** dense walk-order id: deterministic tiebreak *)
  sa_qname : string;  (** enclosing method, as the VM names race sites *)
  sa_cls : string;  (** enclosing class *)
  sa_field : string;  (** ["[]"] for array elements *)
  sa_kind : kind;
  sa_pos : Jir.Ast.pos;
  sa_base : base;
  sa_base_path : lpath;  (** [Lthis]/[Llocal] when the base is such a path *)
  sa_locks : lpath list;  (** locks held, outermost first ([Lunknown] allowed) *)
  sa_regions : int list;  (** enclosing sync region ids, outermost first *)
}

val is_init_qname : string -> bool
(** Does the qname denote a constructor or field initializer? *)

(** Escape / thread-sharedness facts consumed by the racy-pair
    generator. *)
type esc = {
  esc_parallel : bool;  (** open world: every method may run concurrently *)
  esc_reachable : (string, unit) Hashtbl.t;  (** spawn-reachable qnames *)
  esc_shared : Sites.t;
}

val esc_reaches : esc -> string -> bool
(** May the method qname execute on a non-main thread? *)

(** A static racy-pair candidate ([cd_a == cd_b] for a self-race). *)
type cand = { cd_field : string; cd_a : acc; cd_b : acc }

val cand_key : field:string -> m1:string -> m2:string -> string * string * string
(** The static identity of a candidate: the field plus the unordered
    pair of enclosing-method qnames — the granularity at which dynamic
    race reports are compared against the static candidate set. *)

val key_of : cand -> string * string * string
val cand_to_string : cand -> string
