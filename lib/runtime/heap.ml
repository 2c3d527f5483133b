(* The mutable heap of the Jir virtual machine: objects, arrays,
   per-class pseudo-objects holding static fields, and the reentrant
   monitor attached to every heap cell.

   Representation, sized for the replay-heavy stages that allocate a
   fresh heap per run and then hammer it with field accesses:

   - addresses are dense (1, 2, 3, ... with no holes), so the cell
     store is a growable array indexed by [addr - 1] rather than a hash
     table — a cell lookup is one bounds check and one read;
   - object fields live in a [Value.t array] positioned by a per-class
     [layout] (field name -> slot, in declaration order).  The caller
     hands the layout to the allocation: the machine builds one per
     class when it compiles a program, so every instance of a class on
     every machine of that program shares one layout record, and
     compiled access sites can cache a resolved slot per access site
     behind a physical-equality check on the layout.  Field counts are
     small, so the by-name lookup is a linear scan — cheaper than
     hashing the name. *)

type layout = {
  l_cls : Jir.Ast.id;
  l_names : Jir.Ast.id array; (* declaration order *)
  l_tys : Jir.Ast.ty array;
  l_defaults : Value.t array; (* initial value per slot *)
}

type obj_kind =
  | Kobject of { cls : Jir.Ast.id; layout : layout; fields : Value.t array }
  | Karray of { elt : Jir.Ast.ty; data : Value.t array }
  | Kclassobj of { cls : Jir.Ast.id; layout : layout; fields : Value.t array }

type monitor = { mutable owner : Value.tid option; mutable depth : int }

type cell = { addr : Value.addr; kind : obj_kind; monitor : monitor }

type t = {
  mutable next : Value.addr;
  mutable cells : cell array; (* slot [addr - 1]; valid below [next - 1] *)
}

exception Fault of string
(* Heap faults (null/bounds/type confusion) become thread crashes. *)

let fault fmt = Format.kasprintf (fun m -> raise (Fault m)) fmt

(* Placeholder for unallocated slots of the backing array; unreachable
   through [cell] because of its bounds check. *)
let dummy_cell =
  {
    addr = 0;
    kind = Karray { elt = Jir.Ast.Tint; data = [||] };
    monitor = { owner = None; depth = 0 };
  }

let create () = { next = 1; cells = Array.make 256 dummy_cell }

let fresh_monitor () = { owner = None; depth = 0 }

let cell t addr =
  if addr >= 1 && addr < t.next then Array.unsafe_get t.cells (addr - 1)
  else fault "dangling address @%d" addr

(* ---------------- layouts ---------------- *)

let make_layout cls (field_tys : (Jir.Ast.id * Jir.Ast.ty) list) : layout =
  {
    l_cls = cls;
    l_names = Array.of_list (List.map fst field_tys);
    l_tys = Array.of_list (List.map snd field_tys);
    l_defaults =
      Array.of_list (List.map (fun (_, ty) -> Value.default_of_ty ty) field_tys);
  }

(* Field slot in [l_names] order, or [-1] when the layout has no such
   field. *)
let slot_of (l : layout) f =
  let names = l.l_names in
  let n = Array.length names in
  let rec go i =
    if i >= n then -1
    else if String.equal (Array.unsafe_get names i) f then i
    else go (i + 1)
  in
  go 0

let layout_names (l : layout) = l.l_names

(* ---------------- allocation ---------------- *)

let push_cell t kind =
  let addr = t.next in
  t.next <- addr + 1;
  let i = addr - 1 in
  if i >= Array.length t.cells then begin
    (* A copy's array is exactly full, possibly empty. *)
    let bigger = Array.make (max 16 (2 * Array.length t.cells)) dummy_cell in
    Array.blit t.cells 0 bigger 0 (Array.length t.cells);
    t.cells <- bigger
  end;
  t.cells.(i) <- { addr; kind; monitor = fresh_monitor () };
  addr

let alloc_object t ~layout =
  let fields = Array.copy layout.l_defaults in
  push_cell t (Kobject { cls = layout.l_cls; layout; fields })

let alloc_array t ~elt ~len =
  if len < 0 then fault "negative array size %d" len;
  push_cell t (Karray { elt; data = Array.make len (Value.default_of_ty elt) })

let alloc_classobj t ~layout =
  let fields = Array.copy layout.l_defaults in
  push_cell t (Kclassobj { cls = layout.l_cls; layout; fields })

let class_of t addr =
  match (cell t addr).kind with
  | Kobject { cls; _ } | Kclassobj { cls; _ } -> Some cls
  | Karray _ -> None

let is_array t addr =
  match (cell t addr).kind with Karray _ -> true | Kobject _ | Kclassobj _ -> false

let get_field t addr f =
  match (cell t addr).kind with
  | Kobject { fields; cls; layout } | Kclassobj { fields; cls; layout } ->
    let s = slot_of layout f in
    if s >= 0 then Array.unsafe_get fields s
    else fault "object @%d of class %s has no field %s" addr cls f
  | Karray _ -> fault "field access %s on an array" f

(* Per-access-site inline cache for compiled code: one resolved
   (layout, slot) pair behind a physical-equality check on the layout.
   Compiled code (and therefore its caches) is shared across machines
   and domains, and so are its layouts, so a site that only ever sees
   one class fills its cell once and only reads it afterwards: every
   access after the first is a pointer compare and an array read.  A
   site that sees several classes (a field of a superclass read through
   subclass instances) refills on each change of class.  A racing
   refill is benign — the cell holds an immutable pair read once. *)
type field_cache = (layout * int) option ref

let new_field_cache () : field_cache = ref None

let get_field_cached t (c : field_cache) addr f =
  match (cell t addr).kind with
  | Kobject { fields; cls; layout } | Kclassobj { fields; cls; layout } -> (
    match !c with
    | Some (l, s) when l == layout -> Array.unsafe_get fields s
    | Some _ | None ->
      let s = slot_of layout f in
      if s >= 0 then begin
        c := Some (layout, s);
        Array.unsafe_get fields s
      end
      else fault "object @%d of class %s has no field %s" addr cls f)
  | Karray _ -> fault "field access %s on an array" f

let set_field_cached t (c : field_cache) addr f v =
  match (cell t addr).kind with
  | Kobject { fields; cls; layout } | Kclassobj { fields; cls; layout } -> (
    match !c with
    | Some (l, s) when l == layout -> Array.unsafe_set fields s v
    | Some _ | None ->
      let s = slot_of layout f in
      if s >= 0 then begin
        c := Some (layout, s);
        Array.unsafe_set fields s v
      end
      else fault "object @%d of class %s has no field %s" addr cls f)
  | Karray _ -> fault "field write %s on an array" f

let array_len t addr =
  match (cell t addr).kind with
  | Karray { data; _ } -> Array.length data
  | Kobject _ | Kclassobj _ -> fault "length of a non-array @%d" addr

let array_get t addr i =
  match (cell t addr).kind with
  | Karray { data; _ } ->
    if i < 0 || i >= Array.length data then
      fault "index %d out of bounds for length %d" i (Array.length data)
    else data.(i)
  | Kobject _ | Kclassobj _ -> fault "indexing a non-array @%d" addr

let array_set t addr i v =
  match (cell t addr).kind with
  | Karray { data; _ } ->
    if i < 0 || i >= Array.length data then
      fault "index %d out of bounds for length %d" i (Array.length data)
    else data.(i) <- v
  | Kobject _ | Kclassobj _ -> fault "indexing a non-array @%d" addr

(* ---------------- monitors (reentrant) ---------------- *)

let try_enter t addr ~tid =
  let m = (cell t addr).monitor in
  match m.owner with
  | None ->
    m.owner <- Some tid;
    m.depth <- 1;
    true
  | Some o when o = tid ->
    m.depth <- m.depth + 1;
    true
  | Some _ -> false

let exit t addr ~tid =
  let m = (cell t addr).monitor in
  match m.owner with
  | Some o when o = tid ->
    m.depth <- m.depth - 1;
    if m.depth = 0 then m.owner <- None
  | Some _ | None -> fault "monitorexit on @%d by non-owner thread %d" addr tid

let monitor_owner t addr = (cell t addr).monitor.owner

let monitor_free_or_mine t addr ~tid =
  match (cell t addr).monitor.owner with None -> true | Some o -> o = tid

let size t = t.next - 1

(* ---------------- copying ---------------- *)

(* An independent heap with the same cells at the same addresses: field
   and array contents and monitors are fresh, while layouts are shared
   (they are immutable).  The cell array holds exactly the cells in use;
   the first allocation on the copy grows it. *)
let copy_cell c =
  let kind =
    match c.kind with
    | Kobject r -> Kobject { r with fields = Array.copy r.fields }
    | Karray r -> Karray { r with data = Array.copy r.data }
    | Kclassobj r -> Kclassobj { r with fields = Array.copy r.fields }
  in
  { addr = c.addr; kind; monitor = { owner = c.monitor.owner; depth = c.monitor.depth } }

let copy t =
  let cells = Array.init (t.next - 1) (fun i -> copy_cell (Array.unsafe_get t.cells i)) in
  { next = t.next; cells }
