(* The classic Eraser state machine (Savage et al., TOCS'97): per
   variable Virgin → Exclusive(t) → Shared → Shared-Modified with a
   shrinking candidate lockset; a race is reported when the candidate
   set empties in a (potentially) shared-modified state.  A run records
   every access; the machine runs over the recorded accesses when the
   reports are asked for. *)

type var = { v_obj : Runtime.Value.addr; v_field : Jir.Ast.id; v_idx : int option }

module VarMap = Map.Make (struct
  type t = var

  let compare = compare
end)

module AddrSet = Set.Make (Int)

type state =
  | Virgin
  | Exclusive of Runtime.Value.tid
  | Shared of AddrSet.t (* read-shared; candidate lockset *)
  | Shared_modified of AddrSet.t

(* What a run keeps: the held locks and every variable's accesses. *)
type t = {
  mutable held : AddrSet.t array; (* per-tid held locks; grown on demand *)
  mutable history : Race.access list VarMap.t; (* per variable, newest first *)
}

let create () = { held = Array.make 8 AddrSet.empty; history = VarMap.empty }

let ensure t tid =
  if tid >= Array.length t.held then begin
    let bigger = Array.make (max (tid + 1) (2 * Array.length t.held)) AddrSet.empty in
    Array.blit t.held 0 bigger 0 (Array.length t.held);
    t.held <- bigger
  end

let access t ~tid ~site ~kind ~obj ~field ~idx ~label ~value =
  ensure t tid;
  let acc =
    {
      Race.a_tid = tid;
      a_site = site;
      a_kind = kind;
      a_obj = obj;
      a_field = field;
      a_idx = idx;
      a_locks = AddrSet.elements t.held.(tid);
      a_label = label;
      a_value = value;
    }
  in
  t.history <-
    VarMap.update
      { v_obj = obj; v_field = field; v_idx = idx }
      (function None -> Some [ acc ] | Some l -> Some (acc :: l))
      t.history

let observer t (e : Runtime.Event.t) =
  match e with
  | Runtime.Event.Lock { tid; addr; _ } ->
    ensure t tid;
    t.held.(tid) <- AddrSet.add addr t.held.(tid)
  | Runtime.Event.Unlock { tid; addr; _ } ->
    ensure t tid;
    t.held.(tid) <- AddrSet.remove addr t.held.(tid)
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

(* The state machine over one variable's accesses, oldest first: its
   reports, in access order.  A report pairs the access that empties
   the candidate lockset with the variable's previous access. *)
let reports_of_var accs =
  let rec go state witness reports = function
    | [] -> List.rev reports
    | (acc : Race.access) :: rest ->
      let locks = AddrSet.of_list acc.Race.a_locks in
      let next, raced =
        match (state, acc.Race.a_kind) with
        | Virgin, (`Read | `Write) -> (Exclusive acc.Race.a_tid, false)
        | Exclusive t0, _ when t0 = acc.Race.a_tid -> (state, false)
        | Exclusive _, `Read -> (Shared locks, false)
        | Exclusive _, `Write -> (Shared_modified locks, AddrSet.is_empty locks)
        | Shared c, `Read -> (Shared (AddrSet.inter c locks), false)
        | (Shared c, `Write | Shared_modified c, (`Read | `Write)) ->
          let c' = AddrSet.inter c locks in
          (Shared_modified c', AddrSet.is_empty c')
      in
      let reports =
        if raced then
          let first = Option.value witness ~default:acc in
          { Race.r_first = first; r_second = acc; r_detector = "eraser" } :: reports
        else reports
      in
      go next (Some acc) reports rest
  in
  go Virgin None [] accs

(* Every variable's reports, in the order the run made the accesses
   that triggered them: a run's labels are unique and increase. *)
let reports t =
  let by_trigger (a : Race.report) (b : Race.report) =
    Int.compare a.Race.r_second.Race.a_label b.Race.r_second.Race.a_label
  in
  Race.dedup
    (List.stable_sort by_trigger
       (VarMap.fold (fun _v accs out -> reports_of_var (List.rev accs) @ out) t.history []))
