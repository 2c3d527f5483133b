(* Lockset-based race detection.

   Two detectors share the bookkeeping here:

   - [eraser]: the classic Eraser state machine (Savage et al., TOCS'97):
     per-variable Virgin → Exclusive(t) → Shared → Shared-Modified with a
     shrinking candidate lockset; a race is reported when the candidate
     set empties in a (potentially) shared-modified state.  It runs over
     the recorded accesses when its reports are asked for, so the
     campaign's lockset runs, which only read the pairs, never pay for it.

   - [candidates]: the hybrid pair collector used to seed RaceFuzzer:
     record every access with its lockset and report all pairs from
     different threads on the same variable with at least one write and
     disjoint locksets.  Noisier than Eraser but never misses the pair a
     directed scheduler should try to force.  It pairs only the first
     access of each (site, kind, tid, locks) per variable, which keeps
     every key's first witness; Eraser reads the full history. *)

type var = { v_obj : Runtime.Value.addr; v_field : Jir.Ast.id; v_idx : int option }

let compare_var a b =
  match Int.compare a.v_obj b.v_obj with
  | 0 -> (
    match String.compare a.v_field b.v_field with
    | 0 -> Option.compare Int.compare a.v_idx b.v_idx
    | c -> c)
  | c -> c

module VarMap = Map.Make (struct
  type t = var

  let compare = compare_var
end)

module AddrSet = Set.Make (Int)

type eraser_state =
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

let held t tid =
  ensure t tid;
  t.held.(tid)

let mk_access ~tid ~site ~kind ~obj ~field ~idx ~label ~value t : Race.access =
  {
    Race.a_tid = tid;
    a_site = site;
    a_kind = kind;
    a_obj = obj;
    a_field = field;
    a_idx = idx;
    a_locks = AddrSet.elements (held t tid);
    a_label = label;
    a_value = value;
  }

let record_access t (acc : Race.access) =
  t.history <-
    VarMap.update
      { v_obj = acc.Race.a_obj; v_field = acc.Race.a_field; v_idx = acc.Race.a_idx }
      (function None -> Some [ acc ] | Some l -> Some (acc :: l))
      t.history

(* Observer translating machine events. *)
let observer t (e : Runtime.Event.t) =
  match e with
  | Runtime.Event.Lock { tid; addr; _ } ->
    ensure t tid;
    t.held.(tid) <- AddrSet.add addr t.held.(tid)
  | Runtime.Event.Unlock { tid; addr; _ } ->
    ensure t tid;
    t.held.(tid) <- AddrSet.remove addr t.held.(tid)
  | Runtime.Event.Read { tid; site; obj; field; idx; label; v; _ } ->
    record_access t
      (mk_access ~tid ~site ~kind:`Read ~obj ~field ~idx ~label ~value:v t)
  | Runtime.Event.Write { tid; site; obj; field; idx; label; v; _ } ->
    record_access t
      (mk_access ~tid ~site ~kind:`Write ~obj ~field ~idx ~label ~value:v t)
  | Runtime.Event.Const _ | Runtime.Event.Move _ | Runtime.Event.Alloc _
  | Runtime.Event.Invoke _ | Runtime.Event.Param _ | Runtime.Event.Return _
  | Runtime.Event.Spawned _ | Runtime.Event.Joined _ | Runtime.Event.Thrown _
    ->
    ()

let attach m =
  let t = create () in
  Runtime.Machine.add_observer m (observer t);
  t

(* The Eraser state machine over one variable's accesses, oldest first:
   its reports, in access order.  A report pairs the access that empties
   the candidate lockset with the variable's previous access. *)
let eraser_var accs =
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
let eraser_reports t =
  let by_trigger (a : Race.report) (b : Race.report) =
    Int.compare a.Race.r_second.Race.a_label b.Race.r_second.Race.a_label
  in
  Race.dedup
    (List.stable_sort by_trigger
       (VarMap.fold (fun _v accs out -> eraser_var (List.rev accs) @ out) t.history []))

let disjoint a b = not (List.exists (fun x -> List.mem x b) a)

(* A variable's accesses, oldest first, keeping only the first of each
   (site, kind, tid, locks).  A pair with a later repeat has an
   equivalent pair earlier in [candidates]' (i, j) order: swap the
   repeat for its first occurrence (and the two ends, if that one came
   first).  The equivalent pair has the same key and passes the same
   tid, write and disjointness tests, so every key's first witness is a
   pair of distinct accesses, and the deduplicated reports do not
   change. *)
let distinct accs =
  match accs with
  | [] | [ _ ] -> accs
  | _ :: _ :: _ ->
    let seen = Hashtbl.create 16 in
    List.filter
      (fun (a : Race.access) ->
        let k = (a.Race.a_site, a.Race.a_kind, a.Race.a_tid, a.Race.a_locks) in
        if Hashtbl.mem seen k then false
        else (
          Hashtbl.replace seen k ();
          true))
      (List.rev accs)

(* All conflicting access pairs with disjoint locksets (the hybrid
   candidate set fed to the directed scheduler). *)
let candidates t : Race.report list =
  let out = ref [] in
  VarMap.iter
    (fun _v accs ->
      let accs = Array.of_list (distinct accs) in
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
    t.history;
  Race.dedup (List.rev !out)
