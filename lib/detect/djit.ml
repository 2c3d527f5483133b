(* Djit+-style happens-before race detection (Pozniansky & Schuster,
   PPoPP'03) — the algorithm FastTrack optimizes.  Per-variable *full*
   vector clocks for both reads and writes, updated on every access;
   no epochs.

   Kept as an executable reference: the test-suite checks that FastTrack
   flags exactly the variables Djit+ flags on random traces (FastTrack's
   correctness theorem). *)

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

type var_meta = {
  mutable wc : Vclock.t; (* write clock: component t = time of t's last write *)
  mutable rc : Vclock.t; (* read clock *)
  mutable last_write : (int * Race.access) list; (* per-tid witnesses *)
  mutable last_read : (int * Race.access) list;
}

type t = {
  mutable clocks : Vclock.t array;
  lock_clocks : (Runtime.Value.addr, Vclock.t) Hashtbl.t;
  mutable vars : var_meta VarMap.t;
  mutable reports : Race.report list;
  held : (Runtime.Value.tid, Runtime.Value.addr list) Hashtbl.t;
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
      { wc = Vclock.empty; rc = Vclock.empty; last_write = []; last_read = [] }
    in
    t.vars <- VarMap.add v m t.vars;
    m

(* Components of [prior] exceeding [c] are concurrent with the current
   access: report one race per concurrent thread. *)
let report_concurrent t ~(prior : Vclock.t) ~(c : Vclock.t)
    ~(witnesses : (int * Race.access) list) ~(acc : Race.access) =
  List.iter
    (fun (wt, w) ->
      if wt <> acc.Race.a_tid && Vclock.get prior wt > Vclock.get c wt then
        t.reports <-
          { Race.r_first = w; r_second = acc; r_detector = "djit+" } :: t.reports)
    witnesses

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
  let v = { v_obj = acc.Race.a_obj; v_field = acc.Race.a_field; v_idx = acc.Race.a_idx } in
  let m = var_meta t v in
  (* write-read race: some write not ordered before this read *)
  report_concurrent t ~prior:m.wc ~c ~witnesses:m.last_write ~acc;
  m.rc <- Vclock.set m.rc tid (Vclock.get c tid);
  m.last_read <- (tid, acc) :: List.remove_assoc tid m.last_read

let on_write t (acc : Race.access) =
  let tid = acc.Race.a_tid in
  let c = clock t tid in
  let v = { v_obj = acc.Race.a_obj; v_field = acc.Race.a_field; v_idx = acc.Race.a_idx } in
  let m = var_meta t v in
  report_concurrent t ~prior:m.wc ~c ~witnesses:m.last_write ~acc;
  report_concurrent t ~prior:m.rc ~c ~witnesses:m.last_read ~acc;
  m.wc <- Vclock.set m.wc tid (Vclock.get c tid);
  m.last_write <- (tid, acc) :: List.remove_assoc tid m.last_write

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

let reports t = Race.dedup (List.rev t.reports)
