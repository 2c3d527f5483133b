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
   scratch hashtable and entry array per domain (cleared, not
   re-allocated) keeps their grown storage across calls and cuts
   per-task GC pressure on Par worker domains.  The [sc_busy] flag
   guards against reentrant use (none exists today) by falling back to
   fresh ones. *)
type scratch = {
  sc_ids : (Value.addr, int) Hashtbl.t;
  mutable sc_entries : entry array; (* node id -> entry, below [next] *)
  mutable sc_busy : bool;
}

let new_scratch () =
  { sc_ids = Hashtbl.create 64; sc_entries = Array.make 64 Epending; sc_busy = false }

let scratch_key : scratch Domain.DLS.key = Domain.DLS.new_key new_scratch

let canonical heap ~(roots : Value.t list) : t =
  let sc = Domain.DLS.get scratch_key in
  let sc, release =
    if sc.sc_busy then (new_scratch (), ignore)
    else begin
      sc.sc_busy <- true;
      (* [clear] keeps the grown bucket array, unlike [reset]. *)
      Hashtbl.clear sc.sc_ids;
      (sc, fun (_ : unit) -> sc.sc_busy <- false)
    end
  in
  let ids = sc.sc_ids in
  Fun.protect ~finally:release @@ fun () ->
  (* Ids are dense visit-order indices into [sc_entries], so the final
     list is just a [List.init] over it — filling a slot after its
     children are visited is O(1) instead of rewriting an entries list.
     Every id below [next] has been written by [fresh], so every slot
     the list reads holds this call's entry. *)
  let next = ref 0 in
  let fresh e =
    let id = !next in
    incr next;
    if id >= Array.length sc.sc_entries then begin
      let bigger = Array.make (2 * Array.length sc.sc_entries) Epending in
      Array.blit sc.sc_entries 0 bigger 0 id;
      sc.sc_entries <- bigger
    end;
    sc.sc_entries.(id) <- e;
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
          (* Each field with its own slot, sorted by name: a field's slot
             is its index in the layout's names. *)
          let slots =
            List.sort
              (fun (f1, _) (f2, _) -> String.compare f1 f2)
              (Array.to_list (Array.mapi (fun s f -> (f, s)) (Heap.layout_names layout)))
          in
          Eobj (cls, List.map (fun (f, s) -> (f, visit fields.(s))) slots)
        | Heap.Karray { data; _ } ->
          Earr (Array.to_list (Array.map visit data))
      in
      sc.sc_entries.(id) <- e;
      id
  in
  List.iter (fun v -> ignore (visit v)) roots;
  { entries = List.init !next (fun i -> (i, sc.sc_entries.(i))) }

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
