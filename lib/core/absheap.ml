(* The heap abstraction H of §3.1, built by folding over a sequential
   execution trace.

   The paper evaluates its inference rules over abstract locations; here
   the sequential trace carries concrete addresses, so aliasing is exact
   and H reduces to per-address state:

   - a *controllable* flag: the address is reachable by the client
     (receiver/argument of a client invocation, or allocated in client
     code).  Library-allocated objects start non-controllable and are
     promoted lazily when the client demonstrably obtains them (passed
     back in, per the lazy bootstrapping of §4 — "for an unseen
     variable, we assign the flags based on its owner state");
   - a *lock depth*: how many monitors are currently held on it;
   - a shadow heap (field → value) mirroring writes, used to resolve
     [src(x, H)]: the I-path through which a client-invoked method's
     frozen parameters reach an address (BFS, shortest path). *)

type frame_info = {
  fi_frame : Runtime.Event.frame_id;
  fi_qname : string;
  fi_cls : Jir.Ast.id;
  fi_meth : Jir.Ast.id;
  fi_static : bool;
  fi_client : bool; (* this invocation crossed the client→library boundary *)
  fi_caller : Runtime.Event.frame_id option;
  fi_label : Runtime.Event.label;
  fi_occurrence : int; (* among client invocations of the same qname *)
  mutable fi_iroots : (int * Runtime.Value.addr) list; (* pos → addr, refs only *)
}

type t = {
  client_classes : (Jir.Ast.id, unit) Hashtbl.t;
  frames : (Runtime.Event.frame_id, frame_info) Hashtbl.t;
  ctrl : (Runtime.Value.addr, bool) Hashtbl.t;
  lockdepth : (Runtime.Value.addr, int) Hashtbl.t;
  shadow : (Runtime.Value.addr, (Jir.Ast.id, Runtime.Value.t) Hashtbl.t) Hashtbl.t;
  classes : (Runtime.Value.addr, string) Hashtbl.t; (* from Alloc events *)
  occurrences : (string, int) Hashtbl.t; (* qname → #client invokes seen *)
}

let create ~client_classes =
  let cc = Hashtbl.create 7 in
  List.iter (fun c -> Hashtbl.replace cc c ()) client_classes;
  {
    client_classes = cc;
    frames = Hashtbl.create 64;
    ctrl = Hashtbl.create 256;
    lockdepth = Hashtbl.create 64;
    shadow = Hashtbl.create 256;
    classes = Hashtbl.create 256;
    occurrences = Hashtbl.create 32;
  }

let is_client_class t cls = Hashtbl.mem t.client_classes cls

let controllable t addr = Option.value ~default:false (Hashtbl.find_opt t.ctrl addr)

let locked t addr = Option.value ~default:0 (Hashtbl.find_opt t.lockdepth addr) > 0

let class_of t addr = Hashtbl.find_opt t.classes addr

let frame_info t frame = Hashtbl.find_opt t.frames frame

let shadow_fields t addr = Hashtbl.find_opt t.shadow addr

let shadow_set t addr field v =
  let tbl =
    match Hashtbl.find_opt t.shadow addr with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace t.shadow addr tbl;
      tbl
  in
  Hashtbl.replace tbl field v

(* Mark [addr] and everything reachable from it (through the shadow
   heap) controllable: the client holds a reference, so it can reach the
   whole structure.  This is the deep initialization the paper's R
   performs on receivers and arguments of client invocations. *)
let mark_controllable_deep t addr =
  let visited = Hashtbl.create 16 in
  let rec go addr depth =
    if depth >= 0 && not (Hashtbl.mem visited addr) then begin
      Hashtbl.replace visited addr ();
      Hashtbl.replace t.ctrl addr true;
      match Hashtbl.find_opt t.shadow addr with
      | None -> ()
      | Some tbl ->
        Hashtbl.iter
          (fun _f v ->
            match Runtime.Value.addr_of v with
            | Some a -> go a (depth - 1)
            | None -> ())
          tbl
    end
  in
  go addr 8

(* Nearest enclosing client-boundary invocation of a frame. *)
let client_anchor t frame =
  let rec go frame guard =
    if guard = 0 then None
    else
      match Hashtbl.find_opt t.frames frame with
      | None -> None
      | Some fi ->
        if fi.fi_client then Some fi
        else (
          match fi.fi_caller with None -> None | Some c -> go c (guard - 1))
  in
  go frame 64

(* src(x, H): the shortest I-path of [anchor] reaching [addr] through
   the current shadow heap.  Deterministic: roots in position order,
   fields in sorted order, BFS so shortest paths win. *)
let src t (anchor : frame_info) (addr : Runtime.Value.addr) : Sym.t option =
  let max_depth = 6 in
  let seen = Hashtbl.create 32 in
  let queue = Queue.create () in
  List.iter
    (fun (pos, root_addr) ->
      let root = if pos = 0 then Sym.Recv else Sym.Arg pos in
      if not (Hashtbl.mem seen root_addr) then begin
        Hashtbl.replace seen root_addr ();
        Queue.add (root_addr, Sym.of_root root) queue
      end)
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) anchor.fi_iroots);
  let result = ref None in
  (try
     while not (Queue.is_empty queue) do
       let a, path = Queue.pop queue in
       if a = addr then begin
         result := Some path;
         raise Exit
       end;
       if Sym.depth path < max_depth then
         match Hashtbl.find_opt t.shadow a with
         | None -> ()
         | Some tbl ->
           let fields =
             List.sort String.compare
               (Hashtbl.fold (fun f _ acc -> f :: acc) tbl [])
           in
           List.iter
             (fun f ->
               match Option.bind (Hashtbl.find_opt tbl f) Runtime.Value.addr_of with
               | Some a' when not (Hashtbl.mem seen a') ->
                 Hashtbl.replace seen a' ();
                 Queue.add (a', Sym.append path f) queue
               | Some _ | None -> ())
             fields
     done
   with Exit -> ());
  !result

(* Fold one event into H. *)
let consume t (e : Runtime.Event.t) =
  match e with
  | Runtime.Event.Invoke { frame; qname; cls; meth; caller; client; label; static; _ }
    ->
    let occurrence =
      if client then begin
        let n = Option.value ~default:0 (Hashtbl.find_opt t.occurrences qname) in
        Hashtbl.replace t.occurrences qname (n + 1);
        n
      end
      else -1
    in
    Hashtbl.replace t.frames frame
      {
        fi_frame = frame;
        fi_qname = qname;
        fi_cls = cls;
        fi_meth = meth;
        fi_static = static;
        fi_client = client;
        fi_caller = caller;
        fi_label = label;
        fi_occurrence = occurrence;
        fi_iroots = [];
      }
  | Runtime.Event.Param { frame; pos; v; _ } -> (
    match (Hashtbl.find_opt t.frames frame, Runtime.Value.addr_of v) with
    | Some fi, Some addr ->
      fi.fi_iroots <- fi.fi_iroots @ [ (pos, addr) ];
      if fi.fi_client then mark_controllable_deep t addr
    | Some _, None | None, _ -> ())
  | Runtime.Event.Alloc { frame; addr; cls; _ } ->
    let in_client =
      match Hashtbl.find_opt t.frames frame with
      | Some fi -> is_client_class t fi.fi_cls
      | None -> false
    in
    Hashtbl.replace t.ctrl addr in_client;
    Hashtbl.replace t.classes addr cls;
    if not (Hashtbl.mem t.shadow addr) then
      Hashtbl.replace t.shadow addr (Hashtbl.create 8)
  | Runtime.Event.Read { obj; field; v; _ } ->
    shadow_set t obj field v;
    (* Lazy flag propagation: an address first seen through a field
       inherits its owner's controllability (§4). *)
    (match Runtime.Value.addr_of v with
    | Some a when not (Hashtbl.mem t.ctrl a) ->
      Hashtbl.replace t.ctrl a (controllable t obj)
    | Some _ | None -> ())
  | Runtime.Event.Write { obj; field; v; _ } -> shadow_set t obj field v
  | Runtime.Event.Lock { addr; _ } ->
    Hashtbl.replace t.lockdepth addr
      (Option.value ~default:0 (Hashtbl.find_opt t.lockdepth addr) + 1)
  | Runtime.Event.Unlock { addr; _ } ->
    Hashtbl.replace t.lockdepth addr
      (max 0 (Option.value ~default:0 (Hashtbl.find_opt t.lockdepth addr) - 1))
  | Runtime.Event.Const _ | Runtime.Event.Move _ | Runtime.Event.Return _
  | Runtime.Event.Spawned _ | Runtime.Event.Joined _ | Runtime.Event.Thrown _
    ->
    ()
