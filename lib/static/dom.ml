(* Shared abstract domain of the static race analyzer: allocation
   sites, lock paths, static access records, sync regions and racy-pair
   candidates.

   Soundness orientation: everything that *reports* (aliasing, thread
   sharedness, may-happen-in-parallel) over-approximates the dynamic
   semantics; everything that *suppresses* (lock paths) under-
   approximates.  The Crucible static⊇dynamic oracle machine-checks
   this on randomly generated programs. *)

module Sites = Set.Make (Int)

type site = int

type site_info = {
  si_cls : string;  (** class name, or ["ty[]"] for array sites *)
  si_meth : string;  (** qualified name of the allocating method *)
  si_pos : Jir.Ast.pos;
  si_array : bool;
}

(* A lock (or access base) described by a syntactic path whose value
   cannot change between monitor entry and the guarded access: [this],
   a single-definition local, or a write-once static field.  Anything
   else is [Lunknown] and never justifies suppressing a pair. *)
type lpath =
  | Lthis
  | Llocal of string
  | Lglobal of string * string  (** write-once static field [C.f] *)
  | Lunknown

let equal_lpath (a : lpath) (b : lpath) =
  match (a, b) with
  | Lthis, Lthis -> true
  | Llocal x, Llocal y -> String.equal x y
  | Lglobal (c1, f1), Lglobal (c2, f2) -> String.equal c1 c2 && String.equal f1 f2
  | Lunknown, Lunknown -> false (* unknown never matches, not even itself *)
  | (Lthis | Llocal _ | Lglobal _ | Lunknown), _ -> false

type kind = Kread | Kwrite

let kind_to_string = function Kread -> "read" | Kwrite -> "write"

(* The base of a static access. *)
type base =
  | Binst of Sites.t  (** instance field / array element: may-point-to set *)
  | Bstatic of string  (** static field of the syntactically named class *)

type region_kind = Rsync_method | Rsync_block

type region = {
  rg_id : int;
  rg_qname : string;
  rg_cls : string;
  rg_pos : Jir.Ast.pos;
  rg_kind : region_kind;
}

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

(* Does the qname denote a constructor or field initializer? *)
let is_init_qname qn =
  Filename.check_suffix qn ".<init>" || Filename.check_suffix qn ".<fieldinit>"

(* Escape / thread-sharedness facts consumed by the racy-pair
   generator: spawn-reachable method qnames (or "everything runs in
   parallel" in open-world mode) and the thread-shared site set. *)
type esc = {
  esc_parallel : bool;  (** open world: every method may run concurrently *)
  esc_reachable : (string, unit) Hashtbl.t;  (** spawn-reachable qnames *)
  esc_shared : Sites.t;
}

let esc_reaches e qn = e.esc_parallel || Hashtbl.mem e.esc_reachable qn

type cand = { cd_field : string; cd_a : acc; cd_b : acc }

(* The static identity of a candidate: the field plus the unordered
   pair of enclosing-method qnames — the granularity at which dynamic
   race reports are compared against the static candidate set. *)
let cand_key ~field ~m1 ~m2 =
  if String.compare m1 m2 <= 0 then (field, m1, m2) else (field, m2, m1)

let key_of (c : cand) =
  cand_key ~field:c.cd_field ~m1:c.cd_a.sa_qname ~m2:c.cd_b.sa_qname

let cand_to_string (c : cand) =
  Printf.sprintf "static race candidate on .%s: %s (%d:%d, %s) <-> %s (%d:%d, %s)"
    c.cd_field c.cd_a.sa_qname c.cd_a.sa_pos.Jir.Ast.line
    c.cd_a.sa_pos.Jir.Ast.col
    (kind_to_string c.cd_a.sa_kind)
    c.cd_b.sa_qname c.cd_b.sa_pos.Jir.Ast.line c.cd_b.sa_pos.Jir.Ast.col
    (kind_to_string c.cd_b.sa_kind)
