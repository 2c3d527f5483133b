(* FastTrack-style happens-before race detection (Flanagan & Freund,
   PLDI'09).  Per-thread vector clocks, per-lock clocks, and adaptive
   per-variable metadata: a last-write epoch plus either a last-read
   epoch (the common case, O(1)) or a full read vector clock when reads
   are concurrent.

   Happens-before edges come from monitor release→acquire, spawn and
   join events of the Jir VM. *)

type var = { v_obj : Runtime.Value.addr; v_field : Jir.Ast.id; v_idx : int option }

module VarMap = Map.Make (struct
  type t = var

  let compare a b =
    match Int.compare a.v_obj b.v_obj with
    | 0 -> (
      match String.compare a.v_field b.v_field with
      | 0 -> Option.compare Int.compare a.v_idx b.v_idx
      | c -> c)
    | c -> c
end)

type read_meta = Repoch of Vclock.Epoch.e | Rvc of Vclock.t

type var_meta = {
  mutable w : Vclock.Epoch.e;
  mutable r : read_meta;
  mutable last_write : Race.access option;
  mutable last_reads : (int * Race.access) list;
      (* most recent read per thread: the witness for any read epoch or
         read-clock entry the checks below can flag *)
}

type t = {
  mutable clocks : Vclock.t array; (* per-tid *)
  mutable lock_clocks : (Runtime.Value.addr, Vclock.t) Hashtbl.t;
  mutable vars : var_meta VarMap.t;
  mutable reports : Race.report list;
  mutable held : (Runtime.Value.tid, Runtime.Value.addr list) Hashtbl.t;
}

let create () =
  {
    clocks = Array.make 8 Vclock.empty;
    lock_clocks = Hashtbl.create 16;
    vars = VarMap.empty;
    reports = [];
    held = Hashtbl.create 8;
  }

let ensure t tid =
  if tid >= Array.length t.clocks then begin
    let bigger = Array.make (max (tid + 1) (2 * Array.length t.clocks)) Vclock.empty in
    Array.blit t.clocks 0 bigger 0 (Array.length t.clocks);
    t.clocks <- bigger
  end;
  (* A thread's own component starts at 1 so fresh epochs are nonzero. *)
  if Vclock.get t.clocks.(tid) tid = 0 then
    t.clocks.(tid) <- Vclock.inc t.clocks.(tid) tid

let clock t tid =
  ensure t tid;
  t.clocks.(tid)

let held_of t tid = Option.value ~default:[] (Hashtbl.find_opt t.held tid)

let var_meta t v =
  match VarMap.find_opt v t.vars with
  | Some m -> m
  | None ->
    let m =
      {
        w = Vclock.Epoch.none;
        r = Repoch Vclock.Epoch.none;
        last_write = None;
        last_reads = [];
      }
    in
    t.vars <- VarMap.add v m t.vars;
    m

let report t ~(prior : Race.access option) ~(acc : Race.access) =
  match prior with
  | None -> ()
  | Some p ->
    if p.Race.a_tid <> acc.Race.a_tid then
      t.reports <-
        { Race.r_first = p; r_second = acc; r_detector = "fasttrack" }
        :: t.reports

let mk_access t ~tid ~site ~kind ~obj ~field ~idx ~label ~value : Race.access =
  {
    Race.a_tid = tid;
    a_site = site;
    a_kind = kind;
    a_obj = obj;
    a_field = field;
    a_idx = idx;
    a_locks = held_of t tid;
    a_label = label;
    a_value = value;
  }

let on_read t (acc : Race.access) =
  let tid = acc.Race.a_tid in
  let c = clock t tid in
  let v =
    { v_obj = acc.Race.a_obj; v_field = acc.Race.a_field; v_idx = acc.Race.a_idx }
  in
  let m = var_meta t v in
  (* write-read race? *)
  if not (Vclock.Epoch.leq_vc m.w c) then report t ~prior:m.last_write ~acc;
  (match m.r with
  | Repoch e ->
    if Vclock.Epoch.leq_vc e c then m.r <- Repoch (Vclock.Epoch.of_vc c tid)
    else
      (* concurrent reads: inflate to a vector clock *)
      m.r <-
        Rvc
          (Vclock.set
             (Vclock.set Vclock.empty (Vclock.Epoch.tid e) (Vclock.Epoch.clock e))
             tid (Vclock.get c tid))
  | Rvc rv -> m.r <- Rvc (Vclock.set rv tid (Vclock.get c tid)));
  m.last_reads <- (tid, acc) :: List.remove_assoc tid m.last_reads

let on_write t (acc : Race.access) =
  let tid = acc.Race.a_tid in
  let c = clock t tid in
  let v =
    { v_obj = acc.Race.a_obj; v_field = acc.Race.a_field; v_idx = acc.Race.a_idx }
  in
  let m = var_meta t v in
  (* write-write race? *)
  if not (Vclock.Epoch.leq_vc m.w c) then report t ~prior:m.last_write ~acc;
  (* read-write race? *)
  (match m.r with
  | Repoch e ->
    if not (Vclock.Epoch.leq_vc e c) then
      report t ~prior:(List.assoc_opt (Vclock.Epoch.tid e) m.last_reads) ~acc
  | Rvc rv ->
    if not (Vclock.leq rv c) then
      report t
        ~prior:
          (List.find_map
             (fun (rt, a) ->
               if Vclock.get rv rt > Vclock.get c rt then Some a else None)
             m.last_reads)
        ~acc);
  m.w <- Vclock.Epoch.of_vc c tid;
  m.r <- Repoch Vclock.Epoch.none;
  m.last_write <- Some acc;
  m.last_reads <- []

let observer t (e : Runtime.Event.t) =
  match e with
  | Runtime.Event.Lock { tid; addr; _ } ->
    ensure t tid;
    Hashtbl.replace t.held tid (addr :: held_of t tid);
    (match Hashtbl.find_opt t.lock_clocks addr with
    | Some lc -> t.clocks.(tid) <- Vclock.join t.clocks.(tid) lc
    | None -> ())
  | Runtime.Event.Unlock { tid; addr; _ } ->
    ensure t tid;
    let rec remove_one = function
      | [] -> []
      | x :: rest -> if x = addr then rest else x :: remove_one rest
    in
    Hashtbl.replace t.held tid (remove_one (held_of t tid));
    Hashtbl.replace t.lock_clocks addr t.clocks.(tid);
    t.clocks.(tid) <- Vclock.inc t.clocks.(tid) tid
  | Runtime.Event.Spawned { tid; new_tid; _ } ->
    ensure t tid;
    ensure t new_tid;
    t.clocks.(new_tid) <- Vclock.join t.clocks.(new_tid) t.clocks.(tid);
    t.clocks.(tid) <- Vclock.inc t.clocks.(tid) tid
  | Runtime.Event.Joined { tid; joined; _ } ->
    ensure t tid;
    ensure t joined;
    t.clocks.(tid) <- Vclock.join t.clocks.(tid) t.clocks.(joined)
  | Runtime.Event.Read { tid; site; obj; field; idx; label; v; _ } ->
    ensure t tid;
    on_read t (mk_access t ~tid ~site ~kind:`Read ~obj ~field ~idx ~label ~value:v)
  | Runtime.Event.Write { tid; site; obj; field; idx; label; v; _ } ->
    ensure t tid;
    on_write t (mk_access t ~tid ~site ~kind:`Write ~obj ~field ~idx ~label ~value:v)
  | Runtime.Event.Const _ | Runtime.Event.Move _ | Runtime.Event.Alloc _
  | Runtime.Event.Invoke _ | Runtime.Event.Param _ | Runtime.Event.Return _
  | Runtime.Event.Thrown _ ->
    ()

let attach m =
  let t = create () in
  Runtime.Machine.add_observer m Runtime.Machine.Sync_and_access (observer t);
  t

let reports t = Race.dedup (List.rev t.reports)
