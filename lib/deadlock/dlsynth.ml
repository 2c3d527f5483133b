(* Deadlock test synthesis: turn an ABBA lock-order pair into a
   two-thread test, instantiate it with objects collected from the seed
   test (cross-unifying the lock owners), and confirm the deadlock with
   a directed scheduler that delays *inner* acquisitions until every
   racy thread holds its outer lock. *)

type test = {
  dt_pair : Lockorder.pair;
  dt_seed_cls : Jir.Ast.id;
  dt_seed_meth : Jir.Ast.id;
}

let ( let* ) = Result.bind

let root_value (cap : Runtime.Interp.captured) (p : Narada_core.Sym.t) :
    (Runtime.Value.t, string) result =
  match p.Narada_core.Sym.root with
  | Narada_core.Sym.Recv -> (
    match cap.Runtime.Interp.cap_recv with
    | Some v -> Ok v
    | None -> Error "static method cannot own a receiver lock")
  | Narada_core.Sym.Arg j -> (
    match List.nth_opt cap.Runtime.Interp.cap_args (j - 1) with
    | Some v -> Ok v
    | None -> Error "missing argument")
  | Narada_core.Sym.Ret -> Error "return-rooted lock paths are not supported"

let set_root (cap : Runtime.Interp.captured) (p : Narada_core.Sym.t)
    (v : Runtime.Value.t) : Runtime.Interp.captured =
  match p.Narada_core.Sym.root with
  | Narada_core.Sym.Recv -> { cap with Runtime.Interp.cap_recv = Some v }
  | Narada_core.Sym.Arg j ->
    {
      cap with
      Runtime.Interp.cap_args =
        List.mapi
          (fun i x -> if i = j - 1 then v else x)
          cap.Runtime.Interp.cap_args;
    }
  | Narada_core.Sym.Ret -> cap

(* Follow the field part of a lock path from the root value. *)
let lock_value m cap (p : Narada_core.Sym.t) : (Runtime.Value.t, string) result =
  let* root = root_value cap p in
  match Runtime.Machine.deref_path m root p.Narada_core.Sym.fields with
  | Some v -> Ok v
  | None -> Error "lock path does not resolve"

let capture m ~(t : test) ~qname ~nth =
  match
    Runtime.Interp.run_until_call m ~cls:t.dt_seed_cls ~meth:t.dt_seed_meth
      ~target_qname:qname ~nth
  with
  | Some c ->
    Runtime.Machine.suspend m c.Runtime.Interp.cap_tid;
    Ok c
  | None -> Error (Printf.sprintf "seed never reaches %s" qname)

let spawn m (cap : Runtime.Interp.captured) ~meth :
    (Runtime.Value.tid, string) result =
  let cu = Runtime.Machine.unit_of m in
  match cap.Runtime.Interp.cap_recv with
  | None -> Error "static deadlock endpoints unsupported"
  | Some recv -> (
    match Runtime.Value.addr_of recv with
    | None -> Error "receiver is not an object"
    | Some a -> (
      match Runtime.Heap.class_of (Runtime.Machine.heap m) a with
      | None -> Error "receiver is an array"
      | Some cls -> (
        match Jir.Code.find_virtual cu cls meth with
        | Some cm ->
          Ok
            (Runtime.Machine.new_thread m ~cm ~recv:(Some recv)
               ~args:cap.Runtime.Interp.cap_args ())
        | None -> Error ("cannot resolve " ^ meth))))

(* Instantiate: collect both endpoints, then rewire thread B's lock
   roots so that B's outer lock is A's inner and vice versa (the ABBA
   crossing).  Only root-level lock paths are rewired; deeper paths rely
   on the seed state already aliasing (documented limitation). *)
let instantiate ?(seed = Runtime.Machine.default_seed) (cu : Jir.Code.unit_) ~client_classes (t : test)
    : (Detect.Racefuzzer.instance, string) result =
  let m = Runtime.Machine.create ~client_classes ~seed cu in
  let ea = t.dt_pair.Lockorder.dl_a and eb = t.dt_pair.Lockorder.dl_b in
  let* cap_a =
    capture m ~t ~qname:ea.Lockorder.ed_qname ~nth:ea.Lockorder.ed_occurrence
  in
  let* cap_b =
    capture m ~t ~qname:eb.Lockorder.ed_qname ~nth:eb.Lockorder.ed_occurrence
  in
  (* cross-unify: B.outer := A.inner, B.inner := A.outer *)
  let* a_outer = lock_value m cap_a ea.Lockorder.ed_outer in
  let* a_inner = lock_value m cap_a ea.Lockorder.ed_inner in
  let cap_b =
    if eb.Lockorder.ed_outer.Narada_core.Sym.fields = [] then
      set_root cap_b eb.Lockorder.ed_outer a_inner
    else cap_b
  in
  let cap_b =
    if eb.Lockorder.ed_inner.Narada_core.Sym.fields = [] then
      set_root cap_b eb.Lockorder.ed_inner a_outer
    else cap_b
  in
  let* t1 = spawn m cap_a ~meth:ea.Lockorder.ed_meth in
  let* t2 = spawn m cap_b ~meth:eb.Lockorder.ed_meth in
  let roots =
    List.filter_map Fun.id
      [ cap_a.Runtime.Interp.cap_recv; cap_b.Runtime.Interp.cap_recv ]
    @ cap_a.Runtime.Interp.cap_args @ cap_b.Runtime.Interp.cap_args
  in
  Ok
    {
      Detect.Racefuzzer.ri_machine = m;
      ri_threads = [ t1; t2 ];
      ri_roots = roots;
    }

(* Directed deadlock scheduler: a thread about to re-enter a monitor
   while already holding one is postponed until every live racy thread
   is similarly poised (or blocked) — then released, forcing the ABBA
   interleaving if it exists. *)
let directed_deadlock_scheduler (racy : Runtime.Value.tid list) :
    Conc.Scheduler.t =
 fun m runnable live ->
  let racy_runnable th = runnable th && List.mem (Runtime.Machine.thread_id th) racy in
  let unpoised th =
    racy_runnable th
    &&
    match Runtime.Machine.peek_th th with
    | Some (_, _, Jir.Code.Ienter _) ->
      Runtime.Machine.held_locks m (Runtime.Machine.thread_id th) = []
    | _ -> true
  in
  match List.find_opt unpoised live with
  | Some _ as th -> th (* advance whoever has not reached its inner acquire *)
  | None -> (
    (* everyone poised: release in order — they will block on each
       other if the deadlock is real *)
    match List.find_opt racy_runnable live with
    | Some _ as th -> th
    | None -> List.find_opt runnable live)

type confirmation = {
  co_deadlocked : bool;
  co_threads : Runtime.Value.tid list; (* threads in the deadlock *)
  co_schedule : string; (* which scheduler confirmed *)
}

(* Confirm by directed scheduling, falling back to [random_tries]
   random schedules.  The test is instantiated once; every schedule
   runs on its own copy of that initial state. *)
let random_tries = 10

let confirm ?(seed = Runtime.Machine.default_seed) (cu : Jir.Code.unit_)
    ~client_classes (t : test) : (confirmation, string) result =
  let* template = instantiate ~seed cu ~client_classes t in
  let try_sched name sched =
    let m = Runtime.Machine.copy template.Detect.Racefuzzer.ri_machine in
    let r = Conc.Exec.run m sched in
    match r.Conc.Exec.outcome with
    | Conc.Exec.Deadlock tids ->
      Some { co_deadlocked = true; co_threads = tids; co_schedule = name }
    | Conc.Exec.All_finished | Conc.Exec.Fuel_exhausted -> None
  in
  match
    try_sched "directed"
      (directed_deadlock_scheduler template.Detect.Racefuzzer.ri_threads)
  with
  | Some c -> Ok c
  | None ->
    let rec randoms i =
      if i >= random_tries then
        Ok { co_deadlocked = false; co_threads = []; co_schedule = "none" }
      else
        match
          try_sched
            (Printf.sprintf "random-%d" i)
            (Conc.Scheduler.random ~seed:(Int64.add seed (Int64.of_int (i * 37))))
        with
        | Some c -> Ok c
        | None -> randoms (i + 1)
    in
    randoms 0

(* End-to-end: analyze, synthesize one test per ABBA pair, confirm. *)
type result_row = {
  rr_pair : Lockorder.pair;
  rr_confirmed : confirmation option;
}

let run (cu : Jir.Code.unit_) ~client_classes ~seed_cls ~seed_meth :
    (result_row list, string) result =
  let* _edges, pairs = Lockorder.analyze cu ~client_classes ~seed_cls ~seed_meth in
  Ok
    (List.map
       (fun p ->
         let t = { dt_pair = p; dt_seed_cls = seed_cls; dt_seed_meth = seed_meth } in
         match confirm cu ~client_classes t with
         | Ok c -> { rr_pair = p; rr_confirmed = Some c }
         | Error _ -> { rr_pair = p; rr_confirmed = None })
       pairs)
