(* The hybrid lockset pair collector that seeds RaceFuzzer: record the
   accesses with their locksets and report all pairs from different
   threads on the same variable with at least one write and disjoint
   locksets.  Noisier than Eraser ({!Eraser}) but never misses the pair
   a directed scheduler should try to force.

   It keeps only what [candidates] reads: per variable, the first
   access of each (site, kind, tid, locks), with its label and value.
   A pair with a later repeat has an equivalent pair earlier in
   [candidates]' (i, j) order: swap the repeat for its first occurrence
   (and the two ends, if that one came first).  The equivalent pair has
   the same key and passes the same tid, write and disjointness tests,
   so every key's first witness is a pair of distinct accesses, and the
   deduplicated reports are those of pairing every access.

   An access allocates nothing unless it is new: the variables hang off
   a table keyed by object address, and each thread's sorted lock list
   is kept between accesses and rebuilt only at [Lock]/[Unlock]. *)

type var = {
  v_obj : Runtime.Value.addr;
  v_field : Jir.Ast.id;
  v_idx : int option;
  mutable v_accs : Race.access list; (* distinct accesses, newest first *)
}

let compare_var a b =
  match Int.compare a.v_obj b.v_obj with
  | 0 -> (
    match String.compare a.v_field b.v_field with
    | 0 -> Option.compare Int.compare a.v_idx b.v_idx
    | c -> c)
  | c -> c

(* Heap addresses are dense small integers, so they are their own
   hash. *)
module Addr_tbl = Hashtbl.Make (struct
  type t = Runtime.Value.addr

  let equal = Int.equal
  let hash a = a land max_int
end)

type t = {
  mutable locks : Runtime.Value.addr list array;
      (* per-tid held locks, sorted and duplicate-free; grown on demand *)
  vars : var list Addr_tbl.t; (* each object's variables *)
}

let create () = { locks = Array.make 8 []; vars = Addr_tbl.create 64 }

let ensure t tid =
  if tid >= Array.length t.locks then begin
    let bigger = Array.make (max (tid + 1) (2 * Array.length t.locks)) [] in
    Array.blit t.locks 0 bigger 0 (Array.length t.locks);
    t.locks <- bigger
  end

let rec insert x = function
  | [] -> [ x ]
  | y :: rest as l -> if x < y then x :: l else if x = y then l else y :: insert x rest

let rec remove x = function
  | [] -> []
  | y :: rest as l -> if x < y then l else if x = y then rest else y :: remove x rest

(* @raise Not_found if no variable of the list has this field and index. *)
let rec find_var field idx = function
  | [] -> raise Not_found
  | v :: rest ->
    if String.equal v.v_field field && Option.equal Int.equal v.v_idx idx then v
    else find_var field idx rest

let var_of t obj field idx =
  let vars = match Addr_tbl.find t.vars obj with vs -> vs | exception Not_found -> [] in
  match find_var field idx vars with
  | v -> v
  | exception Not_found ->
    let v = { v_obj = obj; v_field = field; v_idx = idx; v_accs = [] } in
    Addr_tbl.replace t.vars obj (v :: vars);
    v

(* Has the variable an access with this (site, kind, tid, locks)? *)
let rec seen ~(site : Runtime.Event.site) ~kind ~tid ~locks = function
  | [] -> false
  | (a : Race.access) :: rest ->
    (a.Race.a_tid = tid
    && a.Race.a_kind = kind
    && (a.Race.a_site == site
       || (a.Race.a_site.Runtime.Event.s_pc = site.Runtime.Event.s_pc
          && String.equal a.Race.a_site.Runtime.Event.s_meth site.Runtime.Event.s_meth))
    && (a.Race.a_locks == locks || List.equal Int.equal a.Race.a_locks locks))
    || seen ~site ~kind ~tid ~locks rest

let access t ~tid ~site ~kind ~obj ~field ~idx ~label ~value =
  ensure t tid;
  let v = var_of t obj field idx in
  let locks = t.locks.(tid) in
  if not (seen ~site ~kind ~tid ~locks v.v_accs) then
    v.v_accs <-
      {
        Race.a_tid = tid;
        a_site = site;
        a_kind = kind;
        a_obj = obj;
        a_field = field;
        a_idx = idx;
        a_locks = locks;
        a_label = label;
        a_value = value;
      }
      :: v.v_accs

(* Observer translating machine events. *)
let observer t (e : Runtime.Event.t) =
  match e with
  | Runtime.Event.Lock { tid; addr; _ } ->
    ensure t tid;
    t.locks.(tid) <- insert addr t.locks.(tid)
  | Runtime.Event.Unlock { tid; addr; _ } ->
    ensure t tid;
    t.locks.(tid) <- remove addr t.locks.(tid)
  | Runtime.Event.Read { tid; site; obj; field; idx; label; v; _ } ->
    access t ~tid ~site ~kind:`Read ~obj ~field ~idx ~label ~value:v
  | Runtime.Event.Write { tid; site; obj; field; idx; label; v; _ } ->
    access t ~tid ~site ~kind:`Write ~obj ~field ~idx ~label ~value:v
  | Runtime.Event.Const _ | Runtime.Event.Move _ | Runtime.Event.Alloc _
  | Runtime.Event.Invoke _ | Runtime.Event.Param _ | Runtime.Event.Return _
  | Runtime.Event.Spawned _ | Runtime.Event.Joined _ | Runtime.Event.Thrown _
    ->
    ()

let attach m =
  let t = create () in
  Runtime.Machine.add_observer m Runtime.Machine.Sync_and_access (observer t);
  t

let disjoint a b = not (List.exists (fun x -> List.mem x b) a)

(* All conflicting access pairs with disjoint locksets (the hybrid
   candidate set fed to the directed scheduler), variable by variable
   in [compare_var] order. *)
let candidates t : Race.report list =
  let vars = Addr_tbl.fold (fun _ vs acc -> List.rev_append vs acc) t.vars [] in
  let out = ref [] in
  List.iter
    (fun v ->
      let accs = Array.of_list (List.rev v.v_accs) in
      let n = Array.length accs in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let a = accs.(i) and b = accs.(j) in
          if
            a.Race.a_tid <> b.Race.a_tid
            && (a.Race.a_kind = `Write || b.Race.a_kind = `Write)
            && disjoint a.Race.a_locks b.Race.a_locks
          then
            out :=
              { Race.r_first = a; r_second = b; r_detector = "lockset-pairs" }
              :: !out
        done
      done)
    (List.sort compare_var vars);
  Race.dedup (List.rev !out)
