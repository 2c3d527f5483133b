(* The Jir virtual machine.

   Execution is organized around single-instruction stepping so that a
   scheduler (random, round-robin, or race-directed) can interleave
   threads at every instruction — the granularity RaceFuzzer needs.
   Every instruction emits at most a handful of {!Event.t}s to the
   registered observers; a recorded event sequence is exactly the trace
   language of the paper's Fig. 7.

   There is one copy of the instruction semantics: each method body is
   compiled once per program into an array of closures, one per pc (see
   "instruction semantics" below), and every machine runs those
   closures from creation on.

   Determinism: the machine has no hidden nondeterminism.  [Sys.randInt]
   uses a seeded splitmix64 stream, so a (program, seed, schedule) triple
   replays identically. *)

open Jir

type status =
  | Runnable
  | Blocked_lock of Value.addr
  | Blocked_join of Value.tid
  | Suspended (* frozen by the harness; never scheduled again *)
  | Finished of Value.t option
  | Crashed of string

(* [frame], [thread], [t] and [exec] are mutually recursive: a frame
   carries the compiled body of its method (an array of closures, one
   per pc), and those closures step the machine. *)

type frame = {
  fid : Event.frame_id;
  meth : Code.meth;
  regs : Value.t array;
  mutable pc : int;
  mutable entered : Value.addr list; (* monitors entered by this frame *)
  ret_dst : Code.reg option; (* caller register receiving the result *)
  comp : exec array; (* compiled body, indexed by pc *)
}

and thread = {
  tid : Value.tid;
  mutable stack : frame list;
  mutable status : status;
  spawned_client : bool; (* was this thread started from client/harness code *)
  rng : Rng.t;
    (* Per-thread random stream: schedule order cannot perturb the
       values another thread draws, which keeps state-diff triage
       deterministic. *)
}

and t = {
  cu : Code.unit_;
  heap : Heap.t;
  class_objs : (Ast.id, Value.addr) Hashtbl.t; (* written by [create] only *)
  threads : (Value.tid, thread) Hashtbl.t;
  mutable thread_list : thread list; (* creation order *)
  mutable live : thread list;
    (* The threads that can still step, in creation order: [thread_list]
       without the Suspended, Finished and Crashed ones.  A thread joins
       in [start_thread] and leaves at the transition that retires it
       ([retire]), so scheduler loops never walk a thread that cannot
       step again. *)
  mutable next_tid : int;
  mutable next_fid : int;
  mutable next_label : int;
  mutable observers : (Event.t -> unit) list;
    (* Every observer, in attach order: all of them read the
       synchronization and access events. *)
  mutable full_observers : (Event.t -> unit) list;
    (* The [Every_event] observers, in attach order: the only readers
       of the other events. *)
  client_classes : (Ast.id, unit) Hashtbl.t; (* written by [create] only *)
  seed : int64; (* base of every thread's [Sys.randInt] stream *)
  out : Buffer.t;
  code : code; (* the compiled bodies of [cu] *)
}

and exec = t -> thread -> frame -> bool

and code = {
  en_tbl : (string * bool * int, exec array) Hashtbl.t;
    (* (qname, static, nparams) -> compiled body.  Read-only after
       compilation, so one [code] is shared by every machine of a
       program (and across domains). *)
  en_layouts : (Ast.id, Heap.layout) Hashtbl.t; (* class -> instance fields *)
  en_statics : (Ast.id, Heap.layout) Hashtbl.t; (* class -> static fields *)
    (* One layout per class for every machine of the program, so a
       compiled site's field cache, once filled, hits on all of them. *)
  en_units : int; (* methods compiled *)
  en_instrs : int; (* instructions compiled *)
}

let meth_key (cm : Code.meth) =
  (cm.Code.cm_qname, cm.Code.cm_static, cm.Code.cm_nparams)

let default_seed = 42L

exception Crash of string
(* Internal: raised while executing one instruction; converted into a
   thread crash by [step]. *)

let crash fmt = Format.kasprintf (fun m -> raise (Crash m)) fmt

(* ---------------- construction ---------------- *)

(* Bounded draws go through the shared unbiased generator, one per
   thread so schedule order cannot perturb another thread's stream.
   The bound is checked here, so [Rng.below] never raises. *)
let rand_int (th : thread) ~bound =
  if bound <= 0 then crash "Sys.randInt: non-positive bound %d" bound;
  Rng.below th.rng bound

(* Events and labels.  Every event consumes one label whether or not
   anyone observes it: an emission point builds and emits its event
   only when some observer reads its kind, and otherwise advances the
   counter by the same count.  A synchronization or access event
   ([Read], [Write], [Lock], [Unlock], [Spawned], [Joined]) is built
   when [observed] and goes to every observer; any other event, and the
   client-boundary flags only it carries, when [fully_observed], and
   goes to the [Every_event] observers only.  So observers of either
   interest may attach at any step and see exactly the labels (and
   events of their kinds) a run observed from the start would have. *)
type interest = Every_event | Sync_and_access

let observed m = match m.observers with [] -> false | _ :: _ -> true
let fully_observed m = match m.full_observers with [] -> false | _ :: _ -> true

(* A loop, not [List.iter] with a closure over [ev]: emitting allocates
   nothing beyond the event. *)
let rec emit_to ev = function
  | [] -> ()
  | f :: rest ->
    f ev;
    emit_to ev rest

let emit m ev = emit_to ev m.observers
let emit_full m ev = emit_to ev m.full_observers

let next_label m =
  let l = m.next_label in
  m.next_label <- l + 1;
  l

let bump m n = m.next_label <- m.next_label + n

let is_client_class m cls = Hashtbl.mem m.client_classes cls

let class_obj m cls =
  match Hashtbl.find_opt m.class_objs cls with
  | Some a -> a
  | None -> crash "no such class %s" cls

(* ---------------- frames and threads ---------------- *)

let frame_is_client m (f : frame) = is_client_class m f.meth.Code.cm_cls

(* Raises [Invalid_argument] only for a method of another program,
   which a harness can pass to [new_thread] (documented there); compiled
   code calls only methods of its own unit. *)
let comp_for m (cm : Code.meth) =
  match Hashtbl.find_opt m.code.en_tbl (meth_key cm) with
  | Some a -> a
  | None ->
    invalid_arg
      (Printf.sprintf "Machine: %s is not a method of this machine's program"
         cm.Code.cm_qname)

(* A fresh frame for [cm] with [recv] (if any) in register 0; the
   caller fills the argument registers after it. *)
let new_frame m ~(cm : Code.meth) ~recv ~ret_dst =
  let fid = m.next_fid in
  m.next_fid <- fid + 1;
  let regs = Array.make (max cm.Code.cm_nregs (cm.Code.cm_nparams + 1)) Value.Vnull in
  (match recv with Some v -> regs.(0) <- v | None -> ());
  { fid; meth = cm; regs; pc = 0; entered = []; ret_dst; comp = comp_for m cm }

(* The Invoke and Param ("I_i := ...") events of a just-pushed frame
   whose receiver (when [has_recv]) and [nargs] arguments are in place;
   [caller] is the stack below it. *)
let invoke_events m ~tid ~(caller : frame list) ~client (f : frame) ~has_recv
    ~nargs =
  let base = if has_recv then 1 else 0 in
  if fully_observed m then begin
    let cm = f.meth in
    let recv = if has_recv then Some f.regs.(0) else None in
    let args = List.init nargs (fun i -> f.regs.(base + i)) in
    emit_full m
      (Event.Invoke
         {
           label = next_label m;
           tid;
           caller = (match caller with p :: _ -> Some p.fid | [] -> None);
           frame = f.fid;
           qname = cm.Code.cm_qname;
           cls = cm.Code.cm_cls;
           meth = cm.Code.cm_name;
           static = cm.Code.cm_static;
           recv;
           args;
           client;
         });
    (match recv with
    | Some v ->
      emit_full m (Event.Param { label = next_label m; tid; frame = f.fid; pos = 0; v })
    | None -> ());
    List.iteri
      (fun i v ->
        emit_full m
          (Event.Param { label = next_label m; tid; frame = f.fid; pos = i + 1; v }))
      args
  end
  else bump m (1 + base + nargs)

(* Register a thread whose initial frame [f] already holds its receiver
   and [nargs] arguments. *)
let start_thread m (f : frame) ~has_recv ~nargs ~spawned_client =
  let tid = m.next_tid in
  m.next_tid <- tid + 1;
  let th =
    {
      tid;
      stack = [ f ];
      status = Runnable;
      spawned_client;
      rng =
        Rng.create
          (Int64.add m.seed (Int64.mul 0x2545F4914F6CDD1DL (Int64.of_int (tid + 1))));
    }
  in
  Hashtbl.replace m.threads tid th;
  m.thread_list <- m.thread_list @ [ th ];
  m.live <- m.live @ [ th ];
  let client =
    fully_observed m && spawned_client && not (is_client_class m f.meth.Code.cm_cls)
  in
  invoke_events m ~tid ~caller:[] ~client f ~has_recv ~nargs;
  tid

(* A harness-created thread invoking [cm] on [recv] with [args]. *)
let new_thread_internal m ~cm ~recv ~args ~spawned_client =
  let f = new_frame m ~cm ~recv ~ret_dst:None in
  let base = if Option.is_some recv then 1 else 0 in
  List.iteri (fun i v -> f.regs.(base + i) <- v) args;
  start_thread m f ~has_recv:(base = 1) ~nargs:(List.length args) ~spawned_client

(* The tid -> record bridge behind every tid-based query; an unknown
   tid is a caller error, documented at [find_thread]. *)
let thread m tid =
  match Hashtbl.find_opt m.threads tid with
  | Some th -> th
  | None -> invalid_arg (Printf.sprintf "Machine: unknown thread %d" tid)

let status m tid = (thread m tid).status

let threads m = List.map (fun th -> th.tid) m.thread_list

(* Record-based variants of the stepping API: driver loops that run
   millions of steps hoist the thread record once instead of paying a
   hash lookup per query.  [thread] above is the tid -> record bridge. *)
let find_thread = thread
let thread_id (th : thread) = th.tid
let status_th (th : thread) = th.status
let all_threads m = m.thread_list
let live_threads m = m.live

let steppable (th : thread) =
  match th.status with
  | Runnable | Blocked_lock _ | Blocked_join _ -> true
  | Suspended | Finished _ | Crashed _ -> false

(* Drop a thread that was just given a retired status from the live
   list.  Retirement happens once per thread, so the list rebuild it
   allocates is off the per-step path. *)
let retire m th = m.live <- List.filter (fun t -> t != th) m.live

(* ---------------- instruction semantics ---------------- *)

let addr_of_exn (v : Value.t) ~what =
  match v with
  | Value.Vref a -> a
  | Value.Vnull -> crash "null pointer dereference (%s)" what
  | Value.Vint _ | Value.Vbool _ | Value.Vstr _ | Value.Vthread _ ->
    crash "%s: not an object (%s)" what (Value.to_string v)

let int_of_exn (v : Value.t) ~what =
  match v with
  | Value.Vint n -> n
  | Value.Vnull | Value.Vbool _ | Value.Vstr _ | Value.Vref _ | Value.Vthread _
    ->
    crash "%s: not an int (%s)" what (Value.to_string v)

let bool_of_exn (v : Value.t) ~what =
  match v with
  | Value.Vbool b -> b
  | Value.Vnull | Value.Vint _ | Value.Vstr _ | Value.Vref _ | Value.Vthread _
    ->
    crash "%s: not a bool (%s)" what (Value.to_string v)

let str_of_exn (v : Value.t) ~what =
  match v with
  | Value.Vstr s -> s
  | Value.Vnull | Value.Vint _ | Value.Vbool _ | Value.Vref _ | Value.Vthread _
    ->
    crash "%s: not a string (%s)" what (Value.to_string v)

let eval_binop op (l : Value.t) (r : Value.t) : Value.t =
  let module A = Ast in
  match op with
  | A.Add -> Value.Vint (int_of_exn l ~what:"+" + int_of_exn r ~what:"+")
  | A.Sub -> Value.Vint (int_of_exn l ~what:"-" - int_of_exn r ~what:"-")
  | A.Mul -> Value.Vint (int_of_exn l ~what:"*" * int_of_exn r ~what:"*")
  | A.Div ->
    let d = int_of_exn r ~what:"/" in
    if d = 0 then crash "division by zero" else Value.Vint (int_of_exn l ~what:"/" / d)
  | A.Mod ->
    let d = int_of_exn r ~what:"%%" in
    if d = 0 then crash "division by zero" else Value.Vint (int_of_exn l ~what:"%%" mod d)
  | A.Lt -> Value.Vbool (int_of_exn l ~what:"<" < int_of_exn r ~what:"<")
  | A.Le -> Value.Vbool (int_of_exn l ~what:"<=" <= int_of_exn r ~what:"<=")
  | A.Gt -> Value.Vbool (int_of_exn l ~what:">" > int_of_exn r ~what:">")
  | A.Ge -> Value.Vbool (int_of_exn l ~what:">=" >= int_of_exn r ~what:">=")
  | A.Eq -> Value.Vbool (Value.equal l r)
  | A.Ne -> Value.Vbool (not (Value.equal l r))
  | A.And -> Value.Vbool (bool_of_exn l ~what:"&&" && bool_of_exn r ~what:"&&")
  | A.Or -> Value.Vbool (bool_of_exn l ~what:"||" || bool_of_exn r ~what:"||")

let const_value = function
  | Code.Cint n -> Value.Vint n
  | Code.Cbool b -> Value.Vbool b
  | Code.Cstr s -> Value.Vstr s
  | Code.Cnull -> Value.Vnull

(* Resolve the target of a virtual call on a receiver value. *)
let resolve_virtual m (recv : Value.t) meth_name =
  let a = addr_of_exn recv ~what:("call to " ^ meth_name) in
  match Heap.class_of m.heap a with
  | None -> crash "method call %s on an array" meth_name
  | Some cls -> (
    match Code.find_virtual m.cu cls meth_name with
    | Some cm -> (a, cm)
    | None -> crash "class %s has no method %s" cls meth_name)

(* Per-call-site inline cache for virtual resolution.  The cached cell
   is an immutable tuple read once, so sharing compiled code across
   domains is safe: a racing refill at worst re-resolves. *)
let resolve_virtual_cached cache m recv ~mname ~what =
  let a = addr_of_exn recv ~what in
  match Heap.class_of m.heap a with
  | None -> crash "method call %s on an array" mname
  | Some cls -> (
    match !cache with
    | Some (c, cm) when String.equal c cls -> cm
    | Some _ | None -> (
      match Code.find_virtual m.cu cls mname with
      | Some cm ->
        cache := Some (cls, cm);
        cm
      | None -> crash "class %s has no method %s" cls mname))

type step_result =
  | Stepped
  | Blocked (* thread exists but cannot make progress now *)
  | Not_runnable (* finished or crashed *)

(* Is a call from the thread's top frame (none = harness) into
   [callee_cls] a client → library boundary crossing? *)
let call_is_client m th ~callee_cls =
  let caller_is_client =
    match th.stack with
    | [] -> th.spawned_client
    | f :: _ -> frame_is_client m f
  in
  caller_is_client && not (is_client_class m callee_cls)

(* Push a callee frame holding [recv] and the values of [from]'s
   argument registers [argr]; the caller's pc must already point past
   the call.  [client] only matters when the machine is fully observed. *)
let push_call m th ~(cm : Code.meth) ~recv ~(from : frame) ~(argr : int array)
    ~ret_dst ~client =
  let f = new_frame m ~cm ~recv ~ret_dst in
  let base = if Option.is_some recv then 1 else 0 in
  let n = Array.length argr in
  for i = 0 to n - 1 do
    f.regs.(base + i) <- from.regs.(argr.(i))
  done;
  let caller = th.stack in
  th.stack <- f :: caller;
  invoke_events m ~tid:th.tid ~caller ~client f ~has_recv:(base = 1) ~nargs:n

let fieldinit_chain_of (cu : Code.unit_) cls =
  (* Field initializers along the superclass chain, superclass first. *)
  let chain = Program.ancestors cu.Code.cu_program cls in
  List.rev
    (List.filter_map
       (fun (c : Ast.class_decl) ->
         match Code.find_cls cu c.Ast.c_name with
         | Some cc -> cc.Code.cc_fieldinit
         | None -> None)
       chain)

let fieldinit_chain m cls = fieldinit_chain_of m.cu cls

let unlock_event m th (f : frame) addr =
  if observed m then
    emit m (Event.Unlock { label = next_label m; tid = th.tid; frame = f.fid; addr })
  else bump m 1

let const_event m th (f : frame) dst =
  if fully_observed m then
    emit_full m (Event.Const { label = next_label m; tid = th.tid; frame = f.fid; dst })
  else bump m 1

let read_event m th (f : frame) ~site ~dst ~obj ~field v =
  if observed m then
    emit m
      (Event.Read
         { label = next_label m; tid = th.tid; frame = f.fid; site; dst; obj; field; idx = None; v })
  else bump m 1

let write_event m th (f : frame) ~site ~obj ~field ~src v =
  if observed m then
    emit m
      (Event.Write
         { label = next_label m; tid = th.tid; frame = f.fid; site; obj; field; idx = None; src; v })
  else bump m 1

(* Release every monitor still held by the frames of a crashing thread,
   emitting Unlock events so detectors see a consistent lock state. *)
let unwind_thread m th =
  List.iter
    (fun (f : frame) ->
      List.iter
        (fun addr ->
          Heap.exit m.heap addr ~tid:th.tid;
          unlock_event m th f addr)
        f.entered;
      f.entered <- [])
    th.stack

let crash_thread m th msg =
  unwind_thread m th;
  th.stack <- [];
  th.status <- Crashed msg;
  retire m th;
  if fully_observed m then
    emit_full m (Event.Thrown { label = next_label m; tid = th.tid; msg })
  else bump m 1

let do_return m th (f : frame) (v : Value.t option) =
  (* Defensive: release monitors the frame still holds (balanced code
     never hits this). *)
  List.iter
    (fun addr ->
      Heap.exit m.heap addr ~tid:th.tid;
      unlock_event m th f addr)
    f.entered;
  f.entered <- [];
  (* [f] is the frame being returned from: the head of the stack. *)
  th.stack <- (match th.stack with _ :: callers -> callers | [] -> []);
  if fully_observed m then begin
    let to_frame, to_client =
      match th.stack with
      | [] -> (None, th.spawned_client && not (frame_is_client m f))
      | p :: _ -> (Some p.fid, frame_is_client m p && not (frame_is_client m f))
    in
    emit_full m
      (Event.Return
         {
           label = next_label m;
           tid = th.tid;
           frame = f.fid;
           to_frame;
           dst = f.ret_dst;
           v;
           to_client;
         })
  end
  else bump m 1;
  (match (th.stack, f.ret_dst, v) with
  | p :: _, Some r, Some v -> p.regs.(r) <- v
  | _, _, _ -> ());
  if th.stack = [] then begin
    th.status <- Finished v;
    retire m th
  end

(* The compiler: each method body becomes an array of closures, one per
   pc, with constants materialized, access sites, branch targets, static
   call targets and field-initializer chains precomputed, and virtual
   calls behind a per-site inline cache.  A closure executes its
   instruction and returns [false] when the thread must block (pc is
   left unchanged for a clean retry). *)

let compile_intrinsic ~site ~next dst intr (argr : int array) : exec =
  let module I = Intrinsics in
  (* A destination register gets the result (null when the intrinsic
     returns nothing) and one Const event. *)
  let ret m th (f : frame) v =
    (match dst with
    | Some d ->
      f.regs.(d) <- v;
      const_event m th f d
    | None -> ());
    f.pc <- next;
    true
  in
  match (intr, argr) with
  | I.Rand_int, [| b |] ->
    fun m th f ->
      let v =
        Value.Vint (rand_int th ~bound:(int_of_exn f.regs.(b) ~what:"randInt"))
      in
      ret m th f v
  | I.Print, [| s |] ->
    fun m th f ->
      Buffer.add_string m.out (Value.to_string f.regs.(s));
      Buffer.add_char m.out '\n';
      ret m th f Value.Vnull
  | I.Arraycopy, [| srcr; spr; dstr; dpr; lenr |] ->
    fun m th f ->
      let src = addr_of_exn f.regs.(srcr) ~what:"arraycopy src" in
      let dsta = addr_of_exn f.regs.(dstr) ~what:"arraycopy dst" in
      let sp = int_of_exn f.regs.(spr) ~what:"arraycopy" in
      let dp = int_of_exn f.regs.(dpr) ~what:"arraycopy" in
      let len = int_of_exn f.regs.(lenr) ~what:"arraycopy" in
      (* Element-wise, emitting access events: System.arraycopy performs
         unsynchronized reads and writes, which matters for race
         detection in the char-array classes. *)
      for i = 0 to len - 1 do
        let v = Heap.array_get m.heap src (sp + i) in
        if observed m then
          emit m
            (Event.Read
               {
                 label = next_label m;
                 tid = th.tid;
                 frame = f.fid;
                 site;
                 dst = 0;
                 obj = src;
                 field = "[]";
                 idx = Some (sp + i);
                 v;
               })
        else bump m 1;
        Heap.array_set m.heap dsta (dp + i) v;
        if observed m then
          emit m
            (Event.Write
               {
                 label = next_label m;
                 tid = th.tid;
                 frame = f.fid;
                 site;
                 obj = dsta;
                 field = "[]";
                 idx = Some (dp + i);
                 src = None;
                 v;
               })
        else bump m 1
      done;
      ret m th f Value.Vnull
  | I.Abs, [| v |] ->
    fun m th f -> ret m th f (Value.Vint (abs (int_of_exn f.regs.(v) ~what:"abs")))
  | I.Min, [| a; b |] ->
    fun m th f ->
      ret m th f
        (Value.Vint
           (min (int_of_exn f.regs.(a) ~what:"min") (int_of_exn f.regs.(b) ~what:"min")))
  | I.Max, [| a; b |] ->
    fun m th f ->
      ret m th f
        (Value.Vint
           (max (int_of_exn f.regs.(a) ~what:"max") (int_of_exn f.regs.(b) ~what:"max")))
  | I.Str_len, [| s |] ->
    fun m th f ->
      ret m th f (Value.Vint (String.length (str_of_exn f.regs.(s) ~what:"strlen")))
  | I.Char_at, [| s; i |] ->
    fun m th f ->
      let s = str_of_exn f.regs.(s) ~what:"charAt" in
      let i = int_of_exn f.regs.(i) ~what:"charAt" in
      ret m th f
        (if i < 0 || i >= String.length s then Value.Vint (-1)
         else Value.Vint (Char.code s.[i]))
  | I.Concat, [| a; b |] ->
    fun m th f ->
      ret m th f
        (Value.Vstr
           (str_of_exn f.regs.(a) ~what:"concat" ^ str_of_exn f.regs.(b) ~what:"concat"))
  | ( ( I.Rand_int | I.Print | I.Arraycopy | I.Abs | I.Min | I.Max | I.Str_len
      | I.Char_at | I.Concat ),
      _ ) ->
    fun _ _ _ -> crash "intrinsic arity mismatch"

let compile_instr (cu : Code.unit_) ~layouts (cm : Code.meth) ~pc
    (instr : Code.instr) : exec =
  let next = pc + 1 in
  let site = { Event.s_meth = cm.Code.cm_qname; s_pc = pc } in
  match instr with
  | Code.Iconst (d, c) ->
    let v = const_value c in
    fun m th f ->
      f.regs.(d) <- v;
      const_event m th f d;
      f.pc <- next;
      true
  | Code.Imove (d, s) ->
    fun m th f ->
      let v = f.regs.(s) in
      f.regs.(d) <- v;
      if fully_observed m then
        emit_full m (Event.Move { label = next_label m; tid = th.tid; frame = f.fid; dst = d; src = s; v })
      else bump m 1;
      f.pc <- next;
      true
  | Code.Iget (d, o, field) ->
    let what = "read of ." ^ field in
    let fc = Heap.new_field_cache () in
    fun m th f ->
      let a = addr_of_exn f.regs.(o) ~what in
      let v = Heap.get_field_cached m.heap fc a field in
      f.regs.(d) <- v;
      read_event m th f ~site ~dst:d ~obj:a ~field v;
      f.pc <- next;
      true
  | Code.Iset (o, field, s) ->
    let what = "write of ." ^ field in
    let fc = Heap.new_field_cache () in
    let src = Some s in
    fun m th f ->
      let a = addr_of_exn f.regs.(o) ~what in
      let v = f.regs.(s) in
      Heap.set_field_cached m.heap fc a field v;
      write_event m th f ~site ~obj:a ~field ~src v;
      f.pc <- next;
      true
  | Code.Igetstatic (d, cls, field) ->
    let fc = Heap.new_field_cache () in
    fun m th f ->
      let a = class_obj m cls in
      let v = Heap.get_field_cached m.heap fc a field in
      f.regs.(d) <- v;
      read_event m th f ~site ~dst:d ~obj:a ~field v;
      f.pc <- next;
      true
  | Code.Isetstatic (cls, field, s) ->
    let fc = Heap.new_field_cache () in
    let src = Some s in
    fun m th f ->
      let a = class_obj m cls in
      let v = f.regs.(s) in
      Heap.set_field_cached m.heap fc a field v;
      write_event m th f ~site ~obj:a ~field ~src v;
      f.pc <- next;
      true
  | Code.Iaload (d, ar, ir) ->
    fun m th f ->
      let a = addr_of_exn f.regs.(ar) ~what:"array read" in
      let i = int_of_exn f.regs.(ir) ~what:"array index" in
      let v = Heap.array_get m.heap a i in
      f.regs.(d) <- v;
      if observed m then
        emit m
          (Event.Read
             {
               label = next_label m;
               tid = th.tid;
               frame = f.fid;
               site;
               dst = d;
               obj = a;
               field = "[]";
               idx = Some i;
               v;
             })
      else bump m 1;
      f.pc <- next;
      true
  | Code.Iastore (ar, ir, s) ->
    let src = Some s in
    fun m th f ->
      let a = addr_of_exn f.regs.(ar) ~what:"array write" in
      let i = int_of_exn f.regs.(ir) ~what:"array index" in
      let v = f.regs.(s) in
      Heap.array_set m.heap a i v;
      if observed m then
        emit m
          (Event.Write
             {
               label = next_label m;
               tid = th.tid;
               frame = f.fid;
               site;
               obj = a;
               field = "[]";
               idx = Some i;
               src;
               v;
             })
      else bump m 1;
      f.pc <- next;
      true
  | Code.Ialen (d, ar) ->
    fun m th f ->
      let a = addr_of_exn f.regs.(ar) ~what:"array length" in
      f.regs.(d) <- Value.Vint (Heap.array_len m.heap a);
      const_event m th f d;
      f.pc <- next;
      true
  | Code.Inew (d, cls) -> (
    match Hashtbl.find_opt layouts cls with
    | None -> fun _ _ _ -> Diag.error "no compiled class %s" cls
    | Some layout ->
      let inits = List.rev (fieldinit_chain_of cu cls) in
      fun m th f ->
        let addr = Heap.alloc_object m.heap ~layout in
        let rv = Value.Vref addr in
        f.regs.(d) <- rv;
        if fully_observed m then
          emit_full m (Event.Alloc { label = next_label m; tid = th.tid; frame = f.fid; dst = d; addr; cls })
        else bump m 1;
        f.pc <- next;
        (* Run field initializers (superclass first): push frames in
           reverse order so the superclass initializer executes first. *)
        List.iter
          (fun cm ->
            push_call m th ~cm ~recv:(Some rv) ~from:f ~argr:[||] ~ret_dst:None
              ~client:false)
          inits;
        true)
  | Code.Inewarr (d, elt, nr) ->
    let cls = Ast.ty_to_string (Ast.Tarray elt) in
    fun m th f ->
      let n = int_of_exn f.regs.(nr) ~what:"array size" in
      let addr = Heap.alloc_array m.heap ~elt ~len:n in
      f.regs.(d) <- Value.Vref addr;
      if fully_observed m then
        emit_full m (Event.Alloc { label = next_label m; tid = th.tid; frame = f.fid; dst = d; addr; cls })
      else bump m 1;
      f.pc <- next;
      true
  | Code.Icall (dst, o, mname, argl) ->
    let argr = Array.of_list argl in
    let what = "call to " ^ mname in
    let cache : (string * Code.meth) option ref = ref None in
    fun m th f ->
      let recv = f.regs.(o) in
      let cm = resolve_virtual_cached cache m recv ~mname ~what in
      f.pc <- next;
      let client = fully_observed m && call_is_client m th ~callee_cls:cm.Code.cm_cls in
      push_call m th ~cm ~recv:(Some recv) ~from:f ~argr ~ret_dst:dst ~client;
      true
  | Code.Ictor (o, cls, argl) -> (
    let argr = Array.of_list argl in
    let arity = List.length argl in
    match Code.find_ctor cu cls ~arity with
    | None -> fun _ _ _ -> crash "no constructor %s/%d" cls arity
    | Some cm ->
      fun m th f ->
        let recv = f.regs.(o) in
        f.pc <- next;
        let client = fully_observed m && call_is_client m th ~callee_cls:cls in
        push_call m th ~cm ~recv:(Some recv) ~from:f ~argr ~ret_dst:None ~client;
        true)
  | Code.Icallstatic (dst, cls, mname, argl) -> (
    let argr = Array.of_list argl in
    match Code.find_static cu cls mname with
    | None -> fun _ _ _ -> crash "no static method %s.%s" cls mname
    | Some cm ->
      fun m th f ->
        f.pc <- next;
        let client = fully_observed m && call_is_client m th ~callee_cls:cls in
        push_call m th ~cm ~recv:None ~from:f ~argr ~ret_dst:dst ~client;
        true)
  | Code.Iintrinsic (dst, intr, argl) ->
    compile_intrinsic ~site ~next dst intr (Array.of_list argl)
  | Code.Ibinop (d, op, l, r) ->
    fun m th f ->
      f.regs.(d) <- eval_binop op f.regs.(l) f.regs.(r);
      const_event m th f d;
      f.pc <- next;
      true
  | Code.Iunop (d, Ast.Not, s) ->
    fun m th f ->
      f.regs.(d) <- Value.Vbool (not (bool_of_exn f.regs.(s) ~what:"!"));
      const_event m th f d;
      f.pc <- next;
      true
  | Code.Iunop (d, Ast.Neg, s) ->
    fun m th f ->
      f.regs.(d) <- Value.Vint (-int_of_exn f.regs.(s) ~what:"unary -");
      const_event m th f d;
      f.pc <- next;
      true
  | Code.Ijmp l ->
    fun _ _ f ->
      f.pc <- l;
      true
  | Code.Ibr (c, l1, l2) ->
    fun _ _ f ->
      f.pc <- (if bool_of_exn f.regs.(c) ~what:"branch" then l1 else l2);
      true
  | Code.Iret None ->
    fun m th f ->
      do_return m th f None;
      true
  | Code.Iret (Some r) ->
    fun m th f ->
      do_return m th f (Some f.regs.(r));
      true
  | Code.Ienter r ->
    fun m th f ->
      let a = addr_of_exn f.regs.(r) ~what:"monitorenter" in
      if Heap.try_enter m.heap a ~tid:th.tid then (
        f.entered <- a :: f.entered;
        if observed m then
          emit m (Event.Lock { label = next_label m; tid = th.tid; frame = f.fid; addr = a })
        else bump m 1;
        f.pc <- next;
        th.status <- Runnable;
        true)
      else (
        th.status <- Blocked_lock a;
        false)
  | Code.Iexit r ->
    (* Remove one occurrence of [a] from the entered list. *)
    let rec remove_one a = function
      | [] -> []
      | x :: rest -> if x = a then rest else x :: remove_one a rest
    in
    fun m th f ->
      let a = addr_of_exn f.regs.(r) ~what:"monitorexit" in
      Heap.exit m.heap a ~tid:th.tid;
      f.entered <- remove_one a f.entered;
      unlock_event m th f a;
      f.pc <- next;
      true
  | Code.Ispawn (d, o, mname, argl) ->
    let argr = Array.of_list argl in
    let n = Array.length argr in
    let what = "call to " ^ mname in
    let cache : (string * Code.meth) option ref = ref None in
    fun m th f ->
      let recv = f.regs.(o) in
      let cm = resolve_virtual_cached cache m recv ~mname ~what in
      let spawned_client = frame_is_client m f in
      f.pc <- next;
      let nf = new_frame m ~cm ~recv:(Some recv) ~ret_dst:None in
      for i = 0 to n - 1 do
        nf.regs.(1 + i) <- f.regs.(argr.(i))
      done;
      let new_tid = start_thread m nf ~has_recv:true ~nargs:n ~spawned_client in
      f.regs.(d) <- Value.Vthread new_tid;
      if observed m then
        emit m
          (Event.Spawned
             {
               label = next_label m;
               tid = th.tid;
               new_tid;
               qname = cm.Code.cm_qname;
               recv;
               args = List.init n (fun i -> nf.regs.(1 + i));
             })
      else bump m 1;
      true
  | Code.Ijoin r -> (
    fun m th f ->
      match f.regs.(r) with
      | Value.Vthread t' -> (
        match status m t' with
        | Finished _ | Crashed _ ->
          if observed m then
            emit m (Event.Joined { label = next_label m; tid = th.tid; joined = t' })
          else bump m 1;
          f.pc <- next;
          th.status <- Runnable;
          true
        | Runnable | Blocked_lock _ | Blocked_join _ | Suspended ->
          th.status <- Blocked_join t';
          false)
      | v -> crash "join on non-thread value %s" (Value.to_string v))
  | Code.Iassert (r, msg) ->
    fun _ _ f ->
      if bool_of_exn f.regs.(r) ~what:"assert" then (
        f.pc <- next;
        true)
      else crash "%s" msg
  | Code.Ithrow msg -> fun _ _ _ -> crash "%s" msg

let compile_meth (cu : Code.unit_) ~layouts (cm : Code.meth) : exec array =
  Array.mapi (fun pc instr -> compile_instr cu ~layouts cm ~pc instr) cm.Code.cm_code

module Compiled = struct
  type nonrec code = code

  let digest = Code.digest

  let compile (cu : Code.unit_) : code =
    let layouts = Hashtbl.create 16 and statics = Hashtbl.create 16 in
    Hashtbl.iter
      (fun name (cc : Code.cls) ->
        Hashtbl.replace layouts name (Heap.make_layout name cc.Code.cc_fields);
        Hashtbl.replace statics name (Heap.make_layout name cc.Code.cc_static_fields))
      cu.Code.cu_classes;
    let tbl = Hashtbl.create 64 in
    let units = ref 0 in
    let instrs = ref 0 in
    let add_meth (cm : Code.meth) =
      let key = meth_key cm in
      if not (Hashtbl.mem tbl key) then (
        Hashtbl.replace tbl key (compile_meth cu ~layouts cm);
        incr units;
        instrs := !instrs + Array.length cm.Code.cm_code)
    in
    Hashtbl.iter
      (fun _ (cc : Code.cls) ->
        (match cc.Code.cc_fieldinit with Some cm -> add_meth cm | None -> ());
        List.iter (fun (_, cm) -> add_meth cm) cc.Code.cc_ctors;
        List.iter (fun (_, cm) -> add_meth cm) cc.Code.cc_methods;
        List.iter (fun (_, cm) -> add_meth cm) cc.Code.cc_static_methods)
      cu.Code.cu_classes;
    {
      en_tbl = tbl;
      en_layouts = layouts;
      en_statics = statics;
      en_units = !units;
      en_instrs = !instrs;
    }

  module Cache = Par.Keyed_cache (struct
    type t = code
  end)

  let cache = Cache.create ()

  let of_unit (cu : Code.unit_) : code =
    Cache.find_or_compute cache (digest cu) (fun () ->
        (* Compile counts are stable: the set of distinct digests a
           campaign compiles is a pure function of inputs and seeds, and
           the cache runs this closure exactly once per digest. *)
        Obs.Span.with_ ~root:true "backend/compile" (fun () ->
            let code = compile cu in
            let g = Obs.Metrics.global () in
            Obs.Metrics.incr g "backend/compiled/units" ~n:code.en_units;
            Obs.Metrics.incr g "backend/compiled/instrs" ~n:code.en_instrs;
            code))

  let units (c : code) = c.en_units
  let instrs (c : code) = c.en_instrs
end

(* ---------------- public stepping API ---------------- *)

let runnable_th m (th : thread) =
  match th.status with
  | Runnable -> true
  | Blocked_lock a -> Heap.monitor_free_or_mine m.heap a ~tid:th.tid
  | Blocked_join t' -> (
    match status m t' with
    | Finished _ | Crashed _ -> true
    | Runnable | Blocked_lock _ | Blocked_join _ | Suspended -> false)
  | Suspended | Finished _ | Crashed _ -> false

let runnable_tids m = List.map thread_id (List.filter (runnable_th m) m.live)
let live_tids m = List.map thread_id m.live

let step_th m (th : thread) : step_result =
  match th.status with
  | Finished _ | Crashed _ | Suspended -> Not_runnable
  | Runnable | Blocked_lock _ | Blocked_join _ -> (
    match th.stack with
    | [] ->
      th.status <- Finished None;
      retire m th;
      Not_runnable
    | f :: _ -> (
      try if f.comp.(f.pc) m th f then Stepped else Blocked
      with
      | Crash msg ->
        crash_thread m th
          (Printf.sprintf "%s (at %s:%d)" msg f.meth.Code.cm_qname f.pc);
        Stepped
      | Heap.Fault msg ->
        crash_thread m th
          (Printf.sprintf "%s (at %s:%d)" msg f.meth.Code.cm_qname f.pc);
        Stepped))

let step m tid : step_result = step_th m (thread m tid)

(* What would [step] execute next?  Used by directed schedulers and by
   the test synthesizer's suspension mechanism. *)
let peek_th (th : thread) : (Code.meth * int * Code.instr) option =
  match th.status with
  | Finished _ | Crashed _ | Suspended -> None
  | Runnable | Blocked_lock _ | Blocked_join _ -> (
    match th.stack with
    | [] -> None
    | f :: _ ->
      if f.pc < Array.length f.meth.Code.cm_code then
        Some (f.meth, f.pc, f.meth.Code.cm_code.(f.pc))
      else None)

(* If the next instruction is a call, resolve its target and argument
   values without executing it. *)
let pending_call_th m (th : thread) :
    (Code.meth * Value.t option * Value.t list) option =
  match (peek_th th, th.stack) with
  | None, _ | _, [] -> None
  | Some (_, _, instr), f :: _ -> (
    let reg r = f.regs.(r) in
    try
      match instr with
      | Code.Icall (_, o, mname, argr) ->
        let recv = reg o in
        let _, cm = resolve_virtual m recv mname in
        Some (cm, Some recv, List.map reg argr)
      | Code.Ictor (o, cls, argr) -> (
        match Code.find_ctor m.cu cls ~arity:(List.length argr) with
        | Some cm -> Some (cm, Some (reg o), List.map reg argr)
        | None -> None)
      | Code.Icallstatic (_, cls, mname, argr) -> (
        match Code.find_static m.cu cls mname with
        | Some cm -> Some (cm, None, List.map reg argr)
        | None -> None)
      | Code.Iconst _ | Code.Imove _ | Code.Iget _ | Code.Iset _
      | Code.Igetstatic _ | Code.Isetstatic _ | Code.Iaload _ | Code.Iastore _
      | Code.Ialen _ | Code.Inew _ | Code.Inewarr _ | Code.Iintrinsic _
      | Code.Ibinop _ | Code.Iunop _ | Code.Ijmp _ | Code.Ibr _ | Code.Iret _
      | Code.Ienter _ | Code.Iexit _ | Code.Ispawn _ | Code.Ijoin _
      | Code.Iassert _ | Code.Ithrow _ ->
        None
    with Crash _ | Heap.Fault _ -> None)

(* Is the next instruction a call of a method named [name] ([Ast.ctor_name]
   for a constructor)?  A decode and a string compare: no resolution, no
   argument list, no allocation.  A call [pending_call_th] resolves to
   [cm] passes it with [name = cm.cm_name], because dispatch looks a
   method up by the instruction's name and a constructor is always named
   [Ast.ctor_name]. *)
let at_call_named_th (th : thread) name =
  match th.stack with
  | [] -> false
  | f :: _ -> (
    let code = f.meth.Code.cm_code in
    f.pc < Array.length code
    &&
    match code.(f.pc) with
    | Code.Icall (_, _, mname, _) | Code.Icallstatic (_, _, mname, _) ->
      String.equal mname name
    | Code.Ictor _ -> String.equal name Ast.ctor_name
    | Code.Iconst _ | Code.Imove _ | Code.Iget _ | Code.Iset _
    | Code.Igetstatic _ | Code.Isetstatic _ | Code.Iaload _ | Code.Iastore _
    | Code.Ialen _ | Code.Inew _ | Code.Inewarr _ | Code.Iintrinsic _
    | Code.Ibinop _ | Code.Iunop _ | Code.Ijmp _ | Code.Ibr _ | Code.Iret _
    | Code.Ienter _ | Code.Iexit _ | Code.Ispawn _ | Code.Ijoin _
    | Code.Iassert _ | Code.Ithrow _ ->
      false)

(* Is the next instruction at [site]?  A pc and a name compare: no
   decode, no allocation.  Whenever [pending_access_th] returns an
   access, its [pa_site] is the top frame's method and pc, so this
   holds for it, and a caller looking for accesses at known sites can
   skip decoding every thread it rejects. *)
let at_site_th (th : thread) (site : Event.site) =
  match th.stack with
  | [] -> false
  | f :: _ -> f.pc = site.Event.s_pc && String.equal f.meth.Code.cm_qname site.Event.s_meth

(* ---------------- construction and harness entry points ---------------- *)

let run_thread_to_completion m tid ~fuel =
  let th = thread m tid in
  let rec loop n =
    if n <= 0 then Error "fuel exhausted"
    else
      match step_th m th with
      | Stepped -> (
        match th.status with
        | Finished v -> Ok v
        | Crashed msg -> Error msg
        | Runnable | Blocked_lock _ | Blocked_join _ | Suspended -> loop (n - 1))
      | Blocked -> Error "single thread blocked (self-deadlock)"
      | Not_runnable -> (
        match th.status with
        | Finished v -> Ok v
        | Crashed msg -> Error msg
        | Runnable | Blocked_lock _ | Blocked_join _ | Suspended -> Error "stuck")
  in
  loop fuel

let default_fuel = 2_000_000

let create ?(client_classes = []) ?(seed = default_seed) (cu : Code.unit_) : t =
  let m =
    {
      cu;
      heap = Heap.create ();
      class_objs = Hashtbl.create 17;
      threads = Hashtbl.create 17;
      thread_list = [];
      live = [];
      next_tid = 0;
      next_fid = 0;
      next_label = 0;
      observers = [];
      full_observers = [];
      client_classes = Hashtbl.create 7;
      seed;
      out = Buffer.create 256;
      code = Compiled.of_unit cu;
    }
  in
  List.iter (fun c -> Hashtbl.replace m.client_classes c ()) client_classes;
  (* Allocate class objects (holders of static fields) and run static
     initializers in declaration order. *)
  Hashtbl.iter
    (fun name (_ : Code.cls) ->
      let a = Heap.alloc_classobj m.heap ~layout:(Hashtbl.find m.code.en_statics name) in
      Hashtbl.replace m.class_objs name a)
    cu.Code.cu_classes;
  List.iter
    (fun (c : Ast.class_decl) ->
      match Code.find_cls cu c.Ast.c_name with
      | Some cc when List.mem_assoc "<clinit>" cc.Code.cc_static_methods ->
        let cm = List.assoc "<clinit>" cc.Code.cc_static_methods in
        let tid = new_thread_internal m ~cm ~recv:None ~args:[] ~spawned_client:false in
        (match run_thread_to_completion m tid ~fuel:default_fuel with
        | Ok _ -> ()
        | Error msg ->
          (* Documented in the interface: a crashing or looping static
             initializer leaves no machine to return. *)
          failwith (Printf.sprintf "<clinit> of %s failed: %s" c.Ast.c_name msg))
      | Some _ | None -> ())
    (Program.classes cu.Code.cu_program);
  m

let add_observer m interest f =
  m.observers <- m.observers @ [ f ];
  match interest with
  | Every_event -> m.full_observers <- m.full_observers @ [ f ]
  | Sync_and_access -> ()

(* Fork a machine: everything a run can change is copied — the heap,
   the thread records and their frames (registers, pc, entered
   monitors), counters, RNG states and output — and what no run changes
   is shared: the code unit, the compiled code with its layouts (so
   copied frames keep their bodies), and the class-object and
   client-class tables, which only [create] writes.
   Observers are not carried over; the copy starts unobserved, as a
   freshly created machine does.  The live list is rebuilt from the
   copied records, so the copy never steps a record of [m].  Only reads
   [m]. *)
let copy m =
  let copy_frame (f : frame) = { f with regs = Array.copy f.regs } in
  let thread_list =
    List.map
      (fun th ->
        { th with stack = List.map copy_frame th.stack; rng = Rng.copy th.rng })
      m.thread_list
  in
  let threads = Hashtbl.copy m.threads in
  List.iter (fun th -> Hashtbl.replace threads th.tid th) thread_list;
  let out = Buffer.create (max 256 (Buffer.length m.out)) in
  Buffer.add_buffer out m.out;
  {
    m with
    heap = Heap.copy m.heap;
    threads;
    thread_list;
    live = List.filter steppable thread_list;
    observers = [];
    full_observers = [];
    out;
  }

let new_thread m ~(cm : Code.meth) ~recv ~args () =
  new_thread_internal m ~cm ~recv ~args ~spawned_client:true

let call m ~(cm : Code.meth) ~recv ~args () =
  let tid = new_thread m ~cm ~recv ~args () in
  run_thread_to_completion m tid ~fuel:default_fuel

let output m = Buffer.contents m.out
let heap m = m.heap
let unit_of m = m.cu
let frames_of m tid = (thread m tid).stack

let top_frame_th (th : thread) =
  match th.stack with [] -> None | f :: _ -> Some f

let labels_used m = m.next_label
let crash_reason m tid =
  match status m tid with
  | Crashed msg -> Some msg
  | Runnable | Blocked_lock _ | Blocked_join _ | Suspended | Finished _ -> None

(* Freeze a thread: it is never scheduled again.  Used on the seed
   replay threads after their objects are collected (§3.4: execution is
   suspended before the invocation of interest). *)
let suspend m tid =
  let th = thread m tid in
  th.status <- Suspended;
  retire m th
let is_client_frame m (f : frame) = frame_is_client m f

(* What memory access (if any) would the next step of [tid] perform?
   Used by the race-directed scheduler to pause a thread "at" an access. *)
type pending_access = {
  pa_site : Event.site;
  pa_obj : Value.addr;
  pa_field : Ast.id;
  pa_idx : int option;
  pa_kind : [ `Read | `Write ];
}

(* The access [f] is poised at.  Top-level, so that building it is the
   only allocation. *)
let pending_at (f : frame) obj field idx kind =
  Some
    {
      pa_site = { Event.s_meth = f.meth.Code.cm_qname; s_pc = f.pc };
      pa_obj = obj;
      pa_field = field;
      pa_idx = idx;
      pa_kind = kind;
    }

(* Called for every runnable thread on every iteration of the directed
   scheduler, and almost every instruction is not an access: decode the
   instruction first and build the site and record only for a real one.
   Same answers as [peek_th] followed by a decode, without the tuple. *)
let pending_access_th m (th : thread) : pending_access option =
  match th.status with
  | Finished _ | Crashed _ | Suspended -> None
  | Runnable | Blocked_lock _ | Blocked_join _ -> (
    match th.stack with
    | [] -> None
    | f :: _ ->
      let code = f.meth.Code.cm_code in
      let pc = f.pc in
      if pc >= Array.length code then None
      else
        match code.(pc) with
        | Code.Iget (_, o, field) -> (
          match f.regs.(o) with
          | Value.Vref obj -> pending_at f obj field None `Read
          | Value.Vnull | Value.Vint _ | Value.Vbool _ | Value.Vstr _
          | Value.Vthread _ ->
            None)
        | Code.Iset (o, field, _) -> (
          match f.regs.(o) with
          | Value.Vref obj -> pending_at f obj field None `Write
          | Value.Vnull | Value.Vint _ | Value.Vbool _ | Value.Vstr _
          | Value.Vthread _ ->
            None)
        | Code.Igetstatic (_, cls, field) -> (
          match Hashtbl.find_opt m.class_objs cls with
          | Some obj -> pending_at f obj field None `Read
          | None -> None)
        | Code.Isetstatic (cls, field, _) -> (
          match Hashtbl.find_opt m.class_objs cls with
          | Some obj -> pending_at f obj field None `Write
          | None -> None)
        | Code.Iaload (_, ar, ir) -> (
          match (f.regs.(ar), f.regs.(ir)) with
          | Value.Vref obj, Value.Vint i -> pending_at f obj "[]" (Some i) `Read
          | _, _ -> None)
        | Code.Iastore (ar, ir, _) -> (
          match (f.regs.(ar), f.regs.(ir)) with
          | Value.Vref obj, Value.Vint i -> pending_at f obj "[]" (Some i) `Write
          | _, _ -> None)
        | Code.Iconst _ | Code.Imove _ | Code.Ialen _ | Code.Inew _
        | Code.Inewarr _ | Code.Icall _ | Code.Ictor _ | Code.Icallstatic _
        | Code.Iintrinsic _ | Code.Ibinop _ | Code.Iunop _ | Code.Ijmp _
        | Code.Ibr _ | Code.Iret _ | Code.Ienter _ | Code.Iexit _
        | Code.Ispawn _ | Code.Ijoin _ | Code.Iassert _ | Code.Ithrow _ ->
          None)

let pending_access m tid = pending_access_th m (thread m tid)

(* Monitors currently held by a thread (with reentrancy collapsed). *)
let held_locks m tid =
  let th = thread m tid in
  List.sort_uniq Int.compare
    (List.concat_map (fun (f : frame) -> f.entered) th.stack)

(* Construct an object from the harness: allocate, run field
   initializers (superclass first) and the arity-matching constructor.
   This is how the synthesizer builds fresh receivers (e.g. the two
   wrapper objects of the paper's Fig. 3). *)
let construct m ~cls ~args () : (Value.t, string) result =
  match Hashtbl.find_opt m.code.en_layouts cls with
  | None -> Error (Printf.sprintf "no such class %s" cls)
  | Some layout ->
    let addr = Heap.alloc_object m.heap ~layout in
    let recv = Value.Vref addr in
    let run cm =
      let tid = new_thread_internal m ~cm ~recv:(Some recv) ~args:(if cm.Code.cm_name = Code.fieldinit_name then [] else args) ~spawned_client:true in
      run_thread_to_completion m tid ~fuel:default_fuel
    in
    let inits = fieldinit_chain m cls in
    let rec run_inits = function
      | [] -> Ok None
      | cm :: rest -> (
        match run cm with Ok _ -> run_inits rest | Error e -> Error e)
    in
    (match run_inits inits with
    | Error e -> Error e
    | Ok _ -> (
      match Code.find_ctor m.cu cls ~arity:(List.length args) with
      | None -> if args = [] then Ok recv else Error (Printf.sprintf "no constructor %s/%d" cls (List.length args))
      | Some cm -> (
        match run cm with Ok _ -> Ok recv | Error e -> Error e)))

(* Follow a field path from a value through the live heap. *)
let deref_path m (v : Value.t) (path : Ast.id list) : Value.t option =
  let rec go v = function
    | [] -> Some v
    | "[]" :: rest -> (
      (* The collapsed array pseudo-field means "some element": pick the
         first non-null slot. *)
      match Value.addr_of v with
      | Some a when Heap.is_array m.heap a ->
        let n = Heap.array_len m.heap a in
        let rec first i =
          if i >= n then None
          else
            match Heap.array_get m.heap a i with
            | Value.Vnull -> first (i + 1)
            | v' -> go v' rest
        in
        first 0
      | Some _ | None -> None)
    | f :: rest -> (
      match Value.addr_of v with
      | Some a when not (Heap.is_array m.heap a) -> (
        match Heap.get_field m.heap a f with
        | v' -> go v' rest
        | exception Heap.Fault _ -> None)
      | Some _ | None -> None)
  in
  go v path
