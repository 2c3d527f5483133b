(* Canonical snapshots of the reachable heap, used by the triage stage
   to decide whether a confirmed race is harmful: execute the racing
   pair in both orders and compare the observable states.

   Addresses are canonicalized to visit order (deterministic DFS from
   the roots with sorted field names), so two heaps that are isomorphic
   from the roots hash equally even if their concrete addresses differ.
   Monitors and thread handles are excluded: they are transient. *)

(* Primitive leaves keep their [Value.t] and are printed only by
   [to_string]: triage canonicalizes every replayed state, and printing
   each leaf there was most of its allocation.  Comparing the values is
   comparing their printouts, because [Value.pp] is injective on
   primitives (strings are quoted), and the two placeholders have
   constructors of their own. *)
type entry =
  | Eprim of Value.t (* null, an int, a bool or a string *)
  | Ethread (* a thread handle: opaque *)
  | Epending (* an object whose children are being visited *)
  | Eobj of string * (string * int) list (* class, field -> node id *)
  | Earr of int list (* element node ids; primitives inlined as negatives *)

type t = { entries : (int * entry) list }

(* Triage calls [canonical] once per replayed execution; reusing one
   pair of scratch hashtables per domain (cleared, not re-allocated)
   keeps their grown bucket arrays across calls and cuts per-task GC
   pressure on Par worker domains.  The [sc_busy] flag guards against
   reentrant use (none exists today) by falling back to fresh tables. *)
type scratch = {
  sc_ids : (Value.addr, int) Hashtbl.t;
  sc_table : (int, entry) Hashtbl.t;
  mutable sc_busy : bool;
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { sc_ids = Hashtbl.create 64; sc_table = Hashtbl.create 64; sc_busy = false })

let canonical heap ~(roots : Value.t list) : t =
  let sc = Domain.DLS.get scratch_key in
  let ids, table, release =
    if sc.sc_busy then
      ((Hashtbl.create 64 : (Value.addr, int) Hashtbl.t), Hashtbl.create 64, ignore)
    else begin
      sc.sc_busy <- true;
      (* [clear] keeps the grown bucket arrays, unlike [reset]. *)
      Hashtbl.clear sc.sc_ids;
      Hashtbl.clear sc.sc_table;
      (sc.sc_ids, sc.sc_table, fun (_ : unit) -> sc.sc_busy <- false)
    end
  in
  Fun.protect ~finally:release @@ fun () ->
  (* id -> entry; ids are dense visit-order indices, so the final list
     is just a [List.init] over the table — filling a slot after its
     children are visited is O(1) instead of rewriting an entries list. *)
  let next = ref 0 in
  let fresh e =
    let id = !next in
    incr next;
    Hashtbl.replace table id e;
    id
  in
  (* Returns the node id for a value; primitive values get fresh leaf
     entries so the structure is uniform. *)
  let rec visit (v : Value.t) : int =
    match v with
    | Value.Vref a -> visit_addr a
    | Value.Vnull | Value.Vint _ | Value.Vbool _ | Value.Vstr _ -> fresh (Eprim v)
    | Value.Vthread _ -> fresh Ethread
  and visit_addr a =
    match Hashtbl.find_opt ids a with
    | Some id -> id
    | None ->
      (* Reserve the slot now so cycles terminate; fill it after
         visiting children. *)
      let id = fresh Epending in
      Hashtbl.replace ids a id;
      let e =
        match (Heap.cell heap a).Heap.kind with
        | Heap.Kobject { cls; layout; fields }
        | Heap.Kclassobj { cls; layout; fields } ->
          let names =
            List.sort String.compare
              (Array.to_list (Heap.layout_names layout))
          in
          Eobj
            ( cls,
              List.map
                (fun f ->
                  match Heap.slot_of layout f with
                  | -1 ->
                    (* [names] was read from this very layout, so a miss
                       means the cell's layout changed under us. *)
                    invalid_arg
                      (Printf.sprintf
                         "Snapshot.canonical: field %s.%s vanished during \
                          traversal"
                         cls f)
                  | s -> (f, visit fields.(s)))
                names )
        | Heap.Karray { data; _ } ->
          Earr (Array.to_list (Array.map visit data))
      in
      Hashtbl.replace table id e;
      id
  in
  List.iter (fun v -> ignore (visit v)) roots;
  {
    entries =
      List.init !next (fun i ->
          match Hashtbl.find_opt table i with
          | Some e -> (i, e)
          | None ->
            invalid_arg
              (Printf.sprintf "Snapshot.canonical: unnumbered entry %d" i));
  }

let hash heap ~roots = Hashtbl.hash (canonical heap ~roots)

let equal heap1 ~roots1 heap2 ~roots2 =
  canonical heap1 ~roots:roots1 = canonical heap2 ~roots:roots2

let to_string (t : t) =
  let buf = Buffer.create 256 in
  List.iter
    (fun (id, e) ->
      match e with
      | Eprim v -> Buffer.add_string buf (Printf.sprintf "#%d = %s\n" id (Value.to_string v))
      | Ethread -> Buffer.add_string buf (Printf.sprintf "#%d = <thread>\n" id)
      | Epending -> Buffer.add_string buf (Printf.sprintf "#%d = <pending>\n" id)
      | Eobj (cls, fs) ->
        Buffer.add_string buf
          (Printf.sprintf "#%d = %s{%s}\n" id cls
             (String.concat ", "
                (List.map (fun (f, i) -> Printf.sprintf "%s=#%d" f i) fs)))
      | Earr xs ->
        Buffer.add_string buf
          (Printf.sprintf "#%d = [%s]\n" id
             (String.concat "; " (List.map (Printf.sprintf "#%d") xs))))
    t.entries;
  Buffer.contents buf
