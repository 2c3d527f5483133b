(* The Jir virtual machine.

   Execution is organized around single-instruction stepping so that a
   scheduler (random, round-robin, or race-directed) can interleave
   threads at every instruction — the granularity RaceFuzzer needs.
   Every instruction emits at most a handful of {!Event.t}s to the
   registered observers; a recorded event sequence is exactly the trace
   language of the paper's Fig. 7.

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
   per pc), and those closures step the machine.  Both [thread] and [t]
   carry an [rng] field, hence the scoped warning-30 exemption. *)
[@@@warning "-30"]

type frame = {
  fid : Event.frame_id;
  meth : Code.meth;
  regs : Value.t array;
  mutable pc : int;
  mutable entered : Value.addr list; (* monitors entered by this frame *)
  ret_dst : Code.reg option; (* caller register receiving the result *)
  mutable comp : exec array;
    (* Compiled body, indexed by pc; physically [no_comp] when this
       machine interprets (no engine installed or method not compiled). *)
}

and thread = {
  tid : Value.tid;
  mutable stack : frame list;
  mutable status : status;
  spawned_client : bool; (* was this thread started from client/harness code *)
  mutable rng : int64;
    (* Per-thread random stream: schedule order cannot perturb the
       values another thread draws, which keeps state-diff triage
       deterministic. *)
}

and t = {
  cu : Code.unit_;
  heap : Heap.t;
  class_objs : (Ast.id, Value.addr) Hashtbl.t;
  threads : (Value.tid, thread) Hashtbl.t;
  mutable thread_list : thread list; (* creation order *)
  mutable next_tid : int;
  mutable next_fid : int;
  mutable next_label : int;
  mutable observers : (Event.t -> unit) list;
  client_classes : (Ast.id, unit) Hashtbl.t;
  mutable rng : int64;
  out : Buffer.t;
  mutable engine : engine option; (* compiled backend, if installed *)
}

and exec = t -> thread -> frame -> bool

and engine = {
  en_tbl : (string * bool * int, exec array) Hashtbl.t;
    (* (qname, static, nparams) -> compiled body.  Read-only after
       compilation, so it is safe to share one engine across machines
       (and across domains). *)
  en_units : int; (* methods compiled *)
  en_instrs : int; (* instructions compiled *)
}

[@@@warning "+30"]

let no_comp : exec array = [||]

let meth_key (cm : Code.meth) =
  (cm.Code.cm_qname, cm.Code.cm_static, cm.Code.cm_nparams)

let comp_for m (cm : Code.meth) =
  match m.engine with
  | None -> no_comp
  | Some en -> (
    match Hashtbl.find_opt en.en_tbl (meth_key cm) with
    | Some a -> a
    | None -> no_comp)

let default_seed = 42L

exception Crash of string
(* Internal: raised while executing one instruction; converted into a
   thread crash by [step]. *)

let crash fmt = Format.kasprintf (fun m -> raise (Crash m)) fmt

(* ---------------- construction ---------------- *)

(* Bounded draws go through the shared unbiased generator; the state
   stays inline in the thread record so schedule order cannot perturb
   another thread's stream. *)
let rand_int (th : thread) ~bound =
  if bound <= 0 then crash "Sys.randInt: non-positive bound %d" bound;
  let v, s = Rng.below_state th.rng bound in
  th.rng <- s;
  v

let emit m ev =
  List.iter (fun f -> f ev) m.observers

let next_label m =
  let l = m.next_label in
  m.next_label <- l + 1;
  l

let is_client_class m cls = Hashtbl.mem m.client_classes cls

let class_obj m cls =
  match Hashtbl.find_opt m.class_objs cls with
  | Some a -> a
  | None -> crash "no such class %s" cls

(* ---------------- frames and threads ---------------- *)

let frame_is_client m (f : frame) = is_client_class m f.meth.Code.cm_cls

let new_frame m ~(cm : Code.meth) ~recv ~args ~ret_dst =
  let fid = m.next_fid in
  m.next_fid <- fid + 1;
  let nregs = max cm.Code.cm_nregs (cm.Code.cm_nparams + 1) in
  let regs = Array.make nregs Value.Vnull in
  let base =
    match recv with
    | Some v ->
      regs.(0) <- v;
      1
    | None -> 0
  in
  List.iteri (fun i v -> regs.(base + i) <- v) args;
  { fid; meth = cm; regs; pc = 0; entered = []; ret_dst; comp = comp_for m cm }

(* Emit the Invoke and Param ("I_i := ...") events for a pushed frame. *)
let emit_invoke_events m ~tid ~caller ~client (f : frame) ~recv ~args =
  let cm = f.meth in
  emit m
    (Event.Invoke
       {
         label = next_label m;
         tid;
         caller;
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
    emit m (Event.Param { label = next_label m; tid; frame = f.fid; pos = 0; v })
  | None -> ());
  List.iteri
    (fun i v ->
      emit m
        (Event.Param { label = next_label m; tid; frame = f.fid; pos = i + 1; v }))
    args

let new_thread_internal m ~cm ~recv ~args ~spawned_client =
  let tid = m.next_tid in
  m.next_tid <- tid + 1;
  let f = new_frame m ~cm ~recv ~args ~ret_dst:None in
  let th =
    {
      tid;
      stack = [ f ];
      status = Runnable;
      spawned_client;
      rng = Int64.add m.rng (Int64.mul 0x2545F4914F6CDD1DL (Int64.of_int (tid + 1)));
    }
  in
  Hashtbl.replace m.threads tid th;
  m.thread_list <- m.thread_list @ [ th ];
  let client = spawned_client && not (is_client_class m cm.Code.cm_cls) in
  emit_invoke_events m ~tid ~caller:None ~client f ~recv ~args;
  tid

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

(* ---------------- instruction execution ---------------- *)

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

type step_result =
  | Stepped
  | Blocked (* thread exists but cannot make progress now *)
  | Not_runnable (* finished or crashed *)

(* Push a callee frame; the caller's pc must already point past the call. *)
let push_call m th ~(cm : Code.meth) ~recv ~args ~ret_dst ~client =
  let f = new_frame m ~cm ~recv ~args ~ret_dst in
  th.stack <- f :: th.stack;
  emit_invoke_events m ~tid:th.tid
    ~caller:(match th.stack with _ :: p :: _ -> Some p.fid | _ -> None)
    ~client f ~recv ~args

(* Is a call from [caller_frame] (None = harness) into [callee_cls] a
   client → library boundary crossing? *)
let call_is_client m th ~callee_cls =
  let caller_is_client =
    match th.stack with
    | [] -> th.spawned_client
    | f :: _ -> frame_is_client m f
  in
  caller_is_client && not (is_client_class m callee_cls)

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

(* Release every monitor still held by the frames of a crashing thread,
   emitting Unlock events so detectors see a consistent lock state. *)
let unwind_thread m th =
  List.iter
    (fun (f : frame) ->
      List.iter
        (fun addr ->
          Heap.exit m.heap addr ~tid:th.tid;
          emit m
            (Event.Unlock { label = next_label m; tid = th.tid; frame = f.fid; addr }))
        f.entered;
      f.entered <- [])
    th.stack

let crash_thread m th msg =
  unwind_thread m th;
  th.stack <- [];
  th.status <- Crashed msg;
  emit m (Event.Thrown { label = next_label m; tid = th.tid; msg })

let do_return m th (f : frame) (v : Value.t option) =
  (* Defensive: release monitors the frame still holds (balanced code
     never hits this). *)
  List.iter
    (fun addr ->
      Heap.exit m.heap addr ~tid:th.tid;
      emit m (Event.Unlock { label = next_label m; tid = th.tid; frame = f.fid; addr }))
    f.entered;
  f.entered <- [];
  th.stack <- List.tl th.stack;
  let to_frame, to_client =
    match th.stack with
    | [] -> (None, th.spawned_client && not (frame_is_client m f))
    | p :: _ -> (Some p.fid, frame_is_client m p && not (frame_is_client m f))
  in
  emit m
    (Event.Return
       {
         label = next_label m;
         tid = th.tid;
         frame = f.fid;
         to_frame;
         dst = f.ret_dst;
         v;
         to_client;
       });
  (match (th.stack, f.ret_dst, v) with
  | p :: _, Some r, Some v -> p.regs.(r) <- v
  | _, _, _ -> ());
  if th.stack = [] then th.status <- Finished v

let site_of (f : frame) pc = { Event.s_meth = f.meth.Code.cm_qname; s_pc = pc }

let exec_intrinsic m th (f : frame) ~pc intr (args : Value.t list) :
    Value.t option =
  let module I = Intrinsics in
  match (intr, args) with
  | I.Rand_int, [ b ] ->
    Some (Value.Vint (rand_int th ~bound:(int_of_exn b ~what:"randInt")))
  | I.Print, [ v ] ->
    Buffer.add_string m.out (Value.to_string v);
    Buffer.add_char m.out '\n';
    None
  | I.Arraycopy, [ src; sp; dst; dp; len ] ->
    let src = addr_of_exn src ~what:"arraycopy src" in
    let dst = addr_of_exn dst ~what:"arraycopy dst" in
    let sp = int_of_exn sp ~what:"arraycopy" in
    let dp = int_of_exn dp ~what:"arraycopy" in
    let len = int_of_exn len ~what:"arraycopy" in
    (* Element-wise, emitting access events: System.arraycopy performs
       unsynchronized reads and writes, which matters for race
       detection in the char-array classes. *)
    for i = 0 to len - 1 do
      let v = Heap.array_get m.heap src (sp + i) in
      emit m
        (Event.Read
           {
             label = next_label m;
             tid = th.tid;
             frame = f.fid;
             site = site_of f pc;
             dst = 0;
             obj = src;
             field = "[]";
             idx = Some (sp + i);
             v;
           });
      Heap.array_set m.heap dst (dp + i) v;
      emit m
        (Event.Write
           {
             label = next_label m;
             tid = th.tid;
             frame = f.fid;
             site = site_of f pc;
             obj = dst;
             field = "[]";
             idx = Some (dp + i);
             src = None;
             v;
           })
    done;
    None
  | I.Abs, [ v ] -> Some (Value.Vint (abs (int_of_exn v ~what:"abs")))
  | I.Min, [ a; b ] ->
    Some (Value.Vint (min (int_of_exn a ~what:"min") (int_of_exn b ~what:"min")))
  | I.Max, [ a; b ] ->
    Some (Value.Vint (max (int_of_exn a ~what:"max") (int_of_exn b ~what:"max")))
  | I.Str_len, [ s ] ->
    Some (Value.Vint (String.length (str_of_exn s ~what:"strlen")))
  | I.Char_at, [ s; i ] ->
    let s = str_of_exn s ~what:"charAt" in
    let i = int_of_exn i ~what:"charAt" in
    if i < 0 || i >= String.length s then Some (Value.Vint (-1))
    else Some (Value.Vint (Char.code s.[i]))
  | I.Concat, [ a; b ] ->
    Some (Value.Vstr (str_of_exn a ~what:"concat" ^ str_of_exn b ~what:"concat"))
  | ( ( I.Rand_int | I.Print | I.Arraycopy | I.Abs | I.Min | I.Max | I.Str_len
      | I.Char_at | I.Concat ),
      _ ) ->
    crash "intrinsic arity mismatch"

(* Execute the instruction at th's current pc.  Returns [false] when the
   thread must block (pc is left unchanged for a clean retry). *)
let exec_instr m th (f : frame) : bool =
  let pc = f.pc in
  let instr = f.meth.Code.cm_code.(pc) in
  let tid = th.tid in
  let reg r = f.regs.(r) in
  let lbl () = next_label m in
  match instr with
  | Code.Iconst (d, c) ->
    f.regs.(d) <- const_value c;
    emit m (Event.Const { label = lbl (); tid; frame = f.fid; dst = d });
    f.pc <- pc + 1;
    true
  | Code.Imove (d, s) ->
    let v = reg s in
    f.regs.(d) <- v;
    emit m (Event.Move { label = lbl (); tid; frame = f.fid; dst = d; src = s; v });
    f.pc <- pc + 1;
    true
  | Code.Iget (d, o, field) ->
    let a = addr_of_exn (reg o) ~what:("read of ." ^ field) in
    let v = Heap.get_field m.heap a field in
    f.regs.(d) <- v;
    emit m
      (Event.Read
         {
           label = lbl ();
           tid;
           frame = f.fid;
           site = site_of f pc;
           dst = d;
           obj = a;
           field;
           idx = None;
           v;
         });
    f.pc <- pc + 1;
    true
  | Code.Iset (o, field, s) ->
    let a = addr_of_exn (reg o) ~what:("write of ." ^ field) in
    let v = reg s in
    Heap.set_field m.heap a field v;
    emit m
      (Event.Write
         {
           label = lbl ();
           tid;
           frame = f.fid;
           site = site_of f pc;
           obj = a;
           field;
           idx = None;
           src = Some s;
           v;
         });
    f.pc <- pc + 1;
    true
  | Code.Igetstatic (d, cls, field) ->
    let a = class_obj m cls in
    let v = Heap.get_field m.heap a field in
    f.regs.(d) <- v;
    emit m
      (Event.Read
         {
           label = lbl ();
           tid;
           frame = f.fid;
           site = site_of f pc;
           dst = d;
           obj = a;
           field;
           idx = None;
           v;
         });
    f.pc <- pc + 1;
    true
  | Code.Isetstatic (cls, field, s) ->
    let a = class_obj m cls in
    let v = reg s in
    Heap.set_field m.heap a field v;
    emit m
      (Event.Write
         {
           label = lbl ();
           tid;
           frame = f.fid;
           site = site_of f pc;
           obj = a;
           field;
           idx = None;
           src = Some s;
           v;
         });
    f.pc <- pc + 1;
    true
  | Code.Iaload (d, ar, ir) ->
    let a = addr_of_exn (reg ar) ~what:"array read" in
    let i = int_of_exn (reg ir) ~what:"array index" in
    let v = Heap.array_get m.heap a i in
    f.regs.(d) <- v;
    emit m
      (Event.Read
         {
           label = lbl ();
           tid;
           frame = f.fid;
           site = site_of f pc;
           dst = d;
           obj = a;
           field = "[]";
           idx = Some i;
           v;
         });
    f.pc <- pc + 1;
    true
  | Code.Iastore (ar, ir, s) ->
    let a = addr_of_exn (reg ar) ~what:"array write" in
    let i = int_of_exn (reg ir) ~what:"array index" in
    let v = reg s in
    Heap.array_set m.heap a i v;
    emit m
      (Event.Write
         {
           label = lbl ();
           tid;
           frame = f.fid;
           site = site_of f pc;
           obj = a;
           field = "[]";
           idx = Some i;
           src = Some s;
           v;
         });
    f.pc <- pc + 1;
    true
  | Code.Ialen (d, ar) ->
    let a = addr_of_exn (reg ar) ~what:"array length" in
    f.regs.(d) <- Value.Vint (Heap.array_len m.heap a);
    emit m (Event.Const { label = lbl (); tid; frame = f.fid; dst = d });
    f.pc <- pc + 1;
    true
  | Code.Inew (d, cls) ->
    let cc = Code.find_cls_exn m.cu cls in
    let addr = Heap.alloc_object m.heap ~cls ~field_tys:cc.Code.cc_fields in
    f.regs.(d) <- Value.Vref addr;
    emit m (Event.Alloc { label = lbl (); tid; frame = f.fid; dst = d; addr; cls });
    f.pc <- pc + 1;
    (* Run field initializers (superclass first): push frames in reverse
       order so the superclass initializer executes first. *)
    List.iter
      (fun (cm : Code.meth) ->
        push_call m th ~cm ~recv:(Some (Value.Vref addr)) ~args:[] ~ret_dst:None
          ~client:false)
      (List.rev (fieldinit_chain m cls));
    true
  | Code.Inewarr (d, elt, nr) ->
    let n = int_of_exn (reg nr) ~what:"array size" in
    let addr = Heap.alloc_array m.heap ~elt ~len:n in
    f.regs.(d) <- Value.Vref addr;
    emit m
      (Event.Alloc
         {
           label = lbl ();
           tid;
           frame = f.fid;
           dst = d;
           addr;
           cls = Ast.ty_to_string (Ast.Tarray elt);
         });
    f.pc <- pc + 1;
    true
  | Code.Icall (dst, o, mname, argr) ->
    let recv = reg o in
    let _, cm = resolve_virtual m recv mname in
    let args = List.map reg argr in
    f.pc <- pc + 1;
    let client = call_is_client m th ~callee_cls:cm.Code.cm_cls in
    push_call m th ~cm ~recv:(Some recv) ~args ~ret_dst:dst ~client;
    true
  | Code.Ictor (o, cls, argr) ->
    let recv = reg o in
    let arity = List.length argr in
    let cm =
      match Code.find_ctor m.cu cls ~arity with
      | Some cm -> cm
      | None -> crash "no constructor %s/%d" cls arity
    in
    let args = List.map reg argr in
    f.pc <- pc + 1;
    let client = call_is_client m th ~callee_cls:cls in
    push_call m th ~cm ~recv:(Some recv) ~args ~ret_dst:None ~client;
    true
  | Code.Icallstatic (dst, cls, mname, argr) ->
    let cm =
      match Code.find_static m.cu cls mname with
      | Some cm -> cm
      | None -> crash "no static method %s.%s" cls mname
    in
    let args = List.map reg argr in
    f.pc <- pc + 1;
    let client = call_is_client m th ~callee_cls:cls in
    push_call m th ~cm ~recv:None ~args ~ret_dst:dst ~client;
    true
  | Code.Iintrinsic (dst, intr, argr) ->
    let args = List.map reg argr in
    let res = exec_intrinsic m th f ~pc intr args in
    (match (dst, res) with
    | Some d, Some v ->
      f.regs.(d) <- v;
      emit m (Event.Const { label = lbl (); tid; frame = f.fid; dst = d })
    | Some d, None ->
      f.regs.(d) <- Value.Vnull;
      emit m (Event.Const { label = lbl (); tid; frame = f.fid; dst = d })
    | None, (Some _ | None) -> ());
    f.pc <- pc + 1;
    true
  | Code.Ibinop (d, op, l, r) ->
    f.regs.(d) <- eval_binop op (reg l) (reg r);
    emit m (Event.Const { label = lbl (); tid; frame = f.fid; dst = d });
    f.pc <- pc + 1;
    true
  | Code.Iunop (d, op, s) ->
    (f.regs.(d) <-
      (match op with
      | Ast.Not -> Value.Vbool (not (bool_of_exn (reg s) ~what:"!"))
      | Ast.Neg -> Value.Vint (-int_of_exn (reg s) ~what:"unary -")));
    emit m (Event.Const { label = lbl (); tid; frame = f.fid; dst = d });
    f.pc <- pc + 1;
    true
  | Code.Ijmp l ->
    f.pc <- l;
    true
  | Code.Ibr (c, l1, l2) ->
    f.pc <- (if bool_of_exn (reg c) ~what:"branch" then l1 else l2);
    true
  | Code.Iret None ->
    do_return m th f None;
    true
  | Code.Iret (Some r) ->
    do_return m th f (Some (reg r));
    true
  | Code.Ienter r ->
    let a = addr_of_exn (reg r) ~what:"monitorenter" in
    if Heap.try_enter m.heap a ~tid then (
      f.entered <- a :: f.entered;
      emit m (Event.Lock { label = lbl (); tid; frame = f.fid; addr = a });
      f.pc <- pc + 1;
      th.status <- Runnable;
      true)
    else (
      th.status <- Blocked_lock a;
      false)
  | Code.Iexit r ->
    let a = addr_of_exn (reg r) ~what:"monitorexit" in
    Heap.exit m.heap a ~tid;
    (* Remove one occurrence of [a] from the entered list. *)
    let rec remove_one = function
      | [] -> []
      | x :: rest -> if x = a then rest else x :: remove_one rest
    in
    f.entered <- remove_one f.entered;
    emit m (Event.Unlock { label = lbl (); tid; frame = f.fid; addr = a });
    f.pc <- pc + 1;
    true
  | Code.Ispawn (d, o, mname, argr) ->
    let recv = reg o in
    let _, cm = resolve_virtual m recv mname in
    let args = List.map reg argr in
    let spawned_client =
      match th.stack with f' :: _ -> frame_is_client m f' | [] -> true
    in
    f.pc <- pc + 1;
    let new_tid = new_thread_internal m ~cm ~recv:(Some recv) ~args ~spawned_client in
    f.regs.(d) <- Value.Vthread new_tid;
    emit m
      (Event.Spawned
         { label = lbl (); tid; new_tid; qname = cm.Code.cm_qname; recv; args });
    true
  | Code.Ijoin r -> (
    match reg r with
    | Value.Vthread t' -> (
      match status m t' with
      | Finished _ | Crashed _ ->
        emit m (Event.Joined { label = lbl (); tid; joined = t' });
        f.pc <- pc + 1;
        th.status <- Runnable;
        true
      | Runnable | Blocked_lock _ | Blocked_join _ | Suspended ->
        th.status <- Blocked_join t';
        false)
    | v -> crash "join on non-thread value %s" (Value.to_string v))
  | Code.Iassert (r, msg) ->
    if bool_of_exn (reg r) ~what:"assert" then (
      f.pc <- pc + 1;
      true)
    else crash "%s" msg
  | Code.Ithrow msg -> crash "%s" msg

(* ---------------- compiled backend ---------------- *)

(* The compiled engine translates each method body into an array of
   closures, one per pc: constants are materialized, branch targets and
   static call targets pre-resolved, field-initializer chains
   precomputed, and virtual calls go through a per-site inline cache.

   The closures are *observer-free fast paths*: [step] routes through
   them only when no observer is registered, so they skip building
   Event records entirely — but they advance [next_label] in exact
   lockstep with [exec_instr] (which consumes a label for every event
   it would emit, observers or not).  A machine can therefore flip
   between the two mid-run (e.g. when a detector attaches after
   instantiation) without perturbing any subsequent event label. *)

let bump m n = m.next_label <- m.next_label + n

let rec remove_one_addr a = function
  | [] -> []
  | x :: rest -> if x = a then rest else x :: remove_one_addr a rest

(* Fast twin of [push_call]: copies argument registers directly and
   advances the label counter by what [emit_invoke_events] would have
   consumed (Invoke + receiver Param + one Param per argument). *)
let fast_push m th ~(cm : Code.meth) ~recv ~(caller : frame)
    ~(argr : int array) ~ret_dst =
  let fid = m.next_fid in
  m.next_fid <- fid + 1;
  let nregs = max cm.Code.cm_nregs (cm.Code.cm_nparams + 1) in
  let regs = Array.make nregs Value.Vnull in
  let base =
    match recv with
    | Some v ->
      regs.(0) <- v;
      1
    | None -> 0
  in
  let n = Array.length argr in
  for i = 0 to n - 1 do
    regs.(base + i) <- caller.regs.(argr.(i))
  done;
  let f =
    { fid; meth = cm; regs; pc = 0; entered = []; ret_dst; comp = comp_for m cm }
  in
  th.stack <- f :: th.stack;
  bump m (1 + base + n)

(* Fast twin of [do_return]: one label per lingering Unlock plus the
   Return label. *)
let fast_return m th (f : frame) (v : Value.t option) =
  List.iter
    (fun addr ->
      Heap.exit m.heap addr ~tid:th.tid;
      bump m 1)
    f.entered;
  f.entered <- [];
  th.stack <- List.tl th.stack;
  bump m 1;
  (match (th.stack, f.ret_dst, v) with
  | p :: _, Some r, Some v -> p.regs.(r) <- v
  | _, _, _ -> ());
  if th.stack = [] then th.status <- Finished v

(* Fast twin of [new_thread_internal]: Invoke + receiver Param + one
   Param per argument (the Spawned label is bumped by the caller). *)
let fast_spawn m ~(cm : Code.meth) ~recv ~(caller : frame)
    ~(argr : int array) ~spawned_client =
  let tid = m.next_tid in
  m.next_tid <- tid + 1;
  let fid = m.next_fid in
  m.next_fid <- fid + 1;
  let nregs = max cm.Code.cm_nregs (cm.Code.cm_nparams + 1) in
  let regs = Array.make nregs Value.Vnull in
  regs.(0) <- recv;
  let n = Array.length argr in
  for i = 0 to n - 1 do
    regs.(1 + i) <- caller.regs.(argr.(i))
  done;
  let f =
    { fid; meth = cm; regs; pc = 0; entered = []; ret_dst = None; comp = comp_for m cm }
  in
  let th =
    {
      tid;
      stack = [ f ];
      status = Runnable;
      spawned_client;
      rng = Int64.add m.rng (Int64.mul 0x2545F4914F6CDD1DL (Int64.of_int (tid + 1)));
    }
  in
  Hashtbl.replace m.threads tid th;
  m.thread_list <- m.thread_list @ [ th ];
  bump m (2 + n);
  tid

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

let compile_intrinsic ~next dst intr (argr : int array) : exec =
  let module I = Intrinsics in
  (* Mirrors the (dst, result) handling of [exec_instr]'s Iintrinsic
     case: a destination register consumes one Const label whether or
     not the intrinsic produced a value. *)
  let ret m (f : frame) v =
    (match dst with
    | Some d ->
      f.regs.(d) <- v;
      bump m 1
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
      ret m f v
  | I.Print, [| s |] ->
    fun m _ f ->
      Buffer.add_string m.out (Value.to_string f.regs.(s));
      Buffer.add_char m.out '\n';
      ret m f Value.Vnull
  | I.Arraycopy, [| srcr; spr; dstr; dpr; lenr |] ->
    fun m _ f ->
      let src = addr_of_exn f.regs.(srcr) ~what:"arraycopy src" in
      let dsta = addr_of_exn f.regs.(dstr) ~what:"arraycopy dst" in
      let sp = int_of_exn f.regs.(spr) ~what:"arraycopy" in
      let dp = int_of_exn f.regs.(dpr) ~what:"arraycopy" in
      let len = int_of_exn f.regs.(lenr) ~what:"arraycopy" in
      for i = 0 to len - 1 do
        Heap.array_set m.heap dsta (dp + i) (Heap.array_get m.heap src (sp + i));
        bump m 2
      done;
      ret m f Value.Vnull
  | I.Abs, [| v |] ->
    fun m _ f -> ret m f (Value.Vint (abs (int_of_exn f.regs.(v) ~what:"abs")))
  | I.Min, [| a; b |] ->
    fun m _ f ->
      ret m f
        (Value.Vint
           (min (int_of_exn f.regs.(a) ~what:"min") (int_of_exn f.regs.(b) ~what:"min")))
  | I.Max, [| a; b |] ->
    fun m _ f ->
      ret m f
        (Value.Vint
           (max (int_of_exn f.regs.(a) ~what:"max") (int_of_exn f.regs.(b) ~what:"max")))
  | I.Str_len, [| s |] ->
    fun m _ f ->
      ret m f (Value.Vint (String.length (str_of_exn f.regs.(s) ~what:"strlen")))
  | I.Char_at, [| s; i |] ->
    fun m _ f ->
      let s = str_of_exn f.regs.(s) ~what:"charAt" in
      let i = int_of_exn f.regs.(i) ~what:"charAt" in
      ret m f
        (if i < 0 || i >= String.length s then Value.Vint (-1)
         else Value.Vint (Char.code s.[i]))
  | I.Concat, [| a; b |] ->
    fun m _ f ->
      ret m f
        (Value.Vstr
           (str_of_exn f.regs.(a) ~what:"concat" ^ str_of_exn f.regs.(b) ~what:"concat"))
  | ( ( I.Rand_int | I.Print | I.Arraycopy | I.Abs | I.Min | I.Max | I.Str_len
      | I.Char_at | I.Concat ),
      _ ) ->
    fun _ _ _ -> crash "intrinsic arity mismatch"

let compile_instr (cu : Code.unit_) ~pc (instr : Code.instr) : exec =
  let next = pc + 1 in
  match instr with
  | Code.Iconst (d, c) ->
    let v = const_value c in
    fun m _ f ->
      f.regs.(d) <- v;
      bump m 1;
      f.pc <- next;
      true
  | Code.Imove (d, s) ->
    fun m _ f ->
      f.regs.(d) <- f.regs.(s);
      bump m 1;
      f.pc <- next;
      true
  | Code.Iget (d, o, field) ->
    let what = "read of ." ^ field in
    let fc = Heap.new_field_cache () in
    fun m _ f ->
      let a = addr_of_exn f.regs.(o) ~what in
      f.regs.(d) <- Heap.get_field_cached m.heap fc a field;
      bump m 1;
      f.pc <- next;
      true
  | Code.Iset (o, field, s) ->
    let what = "write of ." ^ field in
    let fc = Heap.new_field_cache () in
    fun m _ f ->
      let a = addr_of_exn f.regs.(o) ~what in
      Heap.set_field_cached m.heap fc a field f.regs.(s);
      bump m 1;
      f.pc <- next;
      true
  | Code.Igetstatic (d, cls, field) ->
    let fc = Heap.new_field_cache () in
    fun m _ f ->
      let a = class_obj m cls in
      f.regs.(d) <- Heap.get_field_cached m.heap fc a field;
      bump m 1;
      f.pc <- next;
      true
  | Code.Isetstatic (cls, field, s) ->
    let fc = Heap.new_field_cache () in
    fun m _ f ->
      let a = class_obj m cls in
      Heap.set_field_cached m.heap fc a field f.regs.(s);
      bump m 1;
      f.pc <- next;
      true
  | Code.Iaload (d, ar, ir) ->
    fun m _ f ->
      let a = addr_of_exn f.regs.(ar) ~what:"array read" in
      let i = int_of_exn f.regs.(ir) ~what:"array index" in
      f.regs.(d) <- Heap.array_get m.heap a i;
      bump m 1;
      f.pc <- next;
      true
  | Code.Iastore (ar, ir, s) ->
    fun m _ f ->
      let a = addr_of_exn f.regs.(ar) ~what:"array write" in
      let i = int_of_exn f.regs.(ir) ~what:"array index" in
      Heap.array_set m.heap a i f.regs.(s);
      bump m 1;
      f.pc <- next;
      true
  | Code.Ialen (d, ar) ->
    fun m _ f ->
      let a = addr_of_exn f.regs.(ar) ~what:"array length" in
      f.regs.(d) <- Value.Vint (Heap.array_len m.heap a);
      bump m 1;
      f.pc <- next;
      true
  | Code.Inew (d, cls) -> (
    match Code.find_cls cu cls with
    | None -> fun m th f -> exec_instr m th f (* crashes identically *)
    | Some cc ->
      let field_tys = cc.Code.cc_fields in
      let inits = List.rev (fieldinit_chain_of cu cls) in
      fun m th f ->
        let addr = Heap.alloc_object m.heap ~cls ~field_tys in
        let rv = Value.Vref addr in
        f.regs.(d) <- rv;
        bump m 1;
        f.pc <- next;
        List.iter
          (fun cm ->
            fast_push m th ~cm ~recv:(Some rv) ~caller:f ~argr:[||] ~ret_dst:None)
          inits;
        true)
  | Code.Inewarr (d, elt, nr) ->
    fun m _ f ->
      let n = int_of_exn f.regs.(nr) ~what:"array size" in
      f.regs.(d) <- Value.Vref (Heap.alloc_array m.heap ~elt ~len:n);
      bump m 1;
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
      fast_push m th ~cm ~recv:(Some recv) ~caller:f ~argr ~ret_dst:dst;
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
        fast_push m th ~cm ~recv:(Some recv) ~caller:f ~argr ~ret_dst:None;
        true)
  | Code.Icallstatic (dst, cls, mname, argl) -> (
    let argr = Array.of_list argl in
    match Code.find_static cu cls mname with
    | None -> fun _ _ _ -> crash "no static method %s.%s" cls mname
    | Some cm ->
      fun m th f ->
        f.pc <- next;
        fast_push m th ~cm ~recv:None ~caller:f ~argr ~ret_dst:dst;
        true)
  | Code.Iintrinsic (dst, intr, argl) ->
    compile_intrinsic ~next dst intr (Array.of_list argl)
  | Code.Ibinop (d, op, l, r) ->
    fun m _ f ->
      f.regs.(d) <- eval_binop op f.regs.(l) f.regs.(r);
      bump m 1;
      f.pc <- next;
      true
  | Code.Iunop (d, Ast.Not, s) ->
    fun m _ f ->
      f.regs.(d) <- Value.Vbool (not (bool_of_exn f.regs.(s) ~what:"!"));
      bump m 1;
      f.pc <- next;
      true
  | Code.Iunop (d, Ast.Neg, s) ->
    fun m _ f ->
      f.regs.(d) <- Value.Vint (-int_of_exn f.regs.(s) ~what:"unary -");
      bump m 1;
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
      fast_return m th f None;
      true
  | Code.Iret (Some r) ->
    fun m th f ->
      fast_return m th f (Some f.regs.(r));
      true
  | Code.Ienter r ->
    fun m th f ->
      let a = addr_of_exn f.regs.(r) ~what:"monitorenter" in
      if Heap.try_enter m.heap a ~tid:th.tid then (
        f.entered <- a :: f.entered;
        bump m 1;
        f.pc <- next;
        th.status <- Runnable;
        true)
      else (
        th.status <- Blocked_lock a;
        false)
  | Code.Iexit r ->
    fun m th f ->
      let a = addr_of_exn f.regs.(r) ~what:"monitorexit" in
      Heap.exit m.heap a ~tid:th.tid;
      f.entered <- remove_one_addr a f.entered;
      bump m 1;
      f.pc <- next;
      true
  | Code.Ispawn (d, o, mname, argl) ->
    let argr = Array.of_list argl in
    let what = "call to " ^ mname in
    let cache : (string * Code.meth) option ref = ref None in
    fun m _th f ->
      let recv = f.regs.(o) in
      let cm = resolve_virtual_cached cache m recv ~mname ~what in
      let spawned_client = frame_is_client m f in
      f.pc <- next;
      let new_tid = fast_spawn m ~cm ~recv ~caller:f ~argr ~spawned_client in
      f.regs.(d) <- Value.Vthread new_tid;
      bump m 1;
      true
  | Code.Ijoin r -> (
    fun m th f ->
      match f.regs.(r) with
      | Value.Vthread t' -> (
        match status m t' with
        | Finished _ | Crashed _ ->
          bump m 1;
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

let compile_meth (cu : Code.unit_) (cm : Code.meth) : exec array =
  Array.mapi (fun pc instr -> compile_instr cu ~pc instr) cm.Code.cm_code

module Compiled = struct
  type code = engine

  (* Canonical content digest of a unit: class names sorted, each with
     its ancestor chain, fields, and methods printed through
     [Code.pp_instr].  Deliberately not [Marshal] (hash tables have no
     canonical layout). *)
  let digest (cu : Code.unit_) =
    let b = Buffer.create 4096 in
    let add = Buffer.add_string b in
    let meth (cm : Code.meth) =
      add cm.Code.cm_qname;
      add (if cm.Code.cm_static then "|s|" else "|v|");
      add (string_of_int cm.Code.cm_nparams);
      add "|";
      add (string_of_int cm.Code.cm_nregs);
      add (if cm.Code.cm_sync then "|y\n" else "|n\n");
      Array.iter
        (fun i ->
          add (Format.asprintf "%a" Code.pp_instr i);
          Buffer.add_char b '\n')
        cm.Code.cm_code
    in
    let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
    let names =
      List.sort String.compare
        (Hashtbl.fold (fun name _ acc -> name :: acc) cu.Code.cu_classes [])
    in
    List.iter
      (fun name ->
        let cc =
          match Hashtbl.find_opt cu.Code.cu_classes name with
          | Some cc -> cc
          | None ->
            (* [name] was just folded out of this very table *)
            invalid_arg
              (Printf.sprintf
                 "Machine.Compiled.digest: class %S vanished from unit" name)
        in
        add "class ";
        add name;
        add " <: ";
        List.iter
          (fun (c : Ast.class_decl) ->
            add c.Ast.c_name;
            add ",")
          (Program.ancestors cu.Code.cu_program name);
        Buffer.add_char b '\n';
        List.iter
          (fun (fld, ty) ->
            add fld;
            add ":";
            add (Ast.ty_to_string ty);
            add ";")
          cc.Code.cc_fields;
        List.iter
          (fun (fld, ty) ->
            add "static ";
            add fld;
            add ":";
            add (Ast.ty_to_string ty);
            add ";")
          cc.Code.cc_static_fields;
        Buffer.add_char b '\n';
        (match cc.Code.cc_fieldinit with Some cm -> meth cm | None -> ());
        List.iter
          (fun (_, cm) -> meth cm)
          (List.sort (fun (a, _) (b, _) -> Int.compare a b) cc.Code.cc_ctors);
        List.iter (fun (_, cm) -> meth cm) (by_name cc.Code.cc_methods);
        List.iter (fun (_, cm) -> meth cm) (by_name cc.Code.cc_static_methods))
      names;
    Digest.to_hex (Digest.string (Buffer.contents b))

  let compile (cu : Code.unit_) : code =
    let tbl = Hashtbl.create 64 in
    let units = ref 0 in
    let instrs = ref 0 in
    let add_meth (cm : Code.meth) =
      let key = meth_key cm in
      if not (Hashtbl.mem tbl key) then (
        Hashtbl.replace tbl key (compile_meth cu cm);
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
    { en_tbl = tbl; en_units = !units; en_instrs = !instrs }

  let units (c : code) = c.en_units
  let instrs (c : code) = c.en_instrs

  let install m (c : code) =
    m.engine <- Some c;
    (* Re-point the compiled bodies of frames that already exist (the
       harness installs right after [create], but a mid-run install
       must stay correct). *)
    Hashtbl.iter
      (fun _ th -> List.iter (fun f -> f.comp <- comp_for m f.meth) th.stack)
      m.threads

  let installed m = m.engine <> None
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

let runnable m tid = runnable_th m (thread m tid)
let runnable_threads m = List.filter (runnable_th m) m.thread_list
let runnable_tids m = List.map thread_id (runnable_threads m)

let live_tids m =
  List.filter_map
    (fun th ->
      match th.status with
      | Finished _ | Crashed _ | Suspended -> None
      | Runnable | Blocked_lock _ | Blocked_join _ -> Some th.tid)
    m.thread_list

let step_th m (th : thread) : step_result =
  match th.status with
  | Finished _ | Crashed _ | Suspended -> Not_runnable
  | Runnable | Blocked_lock _ | Blocked_join _ -> (
    match th.stack with
    | [] ->
      th.status <- Finished None;
      Not_runnable
    | f :: _ -> (
      try
        (* Compiled fast path only when nothing is observing: the
           closures skip event construction but keep [next_label] in
           lockstep, so attaching an observer later stays sound. *)
        let ok =
          if f.comp == no_comp || m.observers <> [] then exec_instr m th f
          else f.comp.(f.pc) m th f
        in
        if ok then Stepped else Blocked
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

let peek m tid = peek_th (thread m tid)

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

let pending_call m tid = pending_call_th m (thread m tid)

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
      next_tid = 0;
      next_fid = 0;
      next_label = 0;
      observers = [];
      client_classes = Hashtbl.create 7;
      rng = seed;
      out = Buffer.create 256;
      engine = None;
    }
  in
  List.iter (fun c -> Hashtbl.replace m.client_classes c ()) client_classes;
  (* Allocate class objects (holders of static fields) and run static
     initializers in declaration order. *)
  Hashtbl.iter
    (fun name (cc : Code.cls) ->
      let a = Heap.alloc_classobj m.heap ~cls:name ~field_tys:cc.Code.cc_static_fields in
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
        | Error msg -> failwith (Printf.sprintf "<clinit> of %s failed: %s" c.Ast.c_name msg))
      | Some _ | None -> ())
    (Program.classes cu.Code.cu_program);
  m

let add_observer m f = m.observers <- m.observers @ [ f ]

(* Fork a machine: everything a run can change is copied — the heap,
   the thread records and their frames (registers, pc, entered
   monitors), counters, RNG states, output and side tables — and what
   no run changes is shared: the code unit, the heap's interned layouts
   and the installed engine (so compiled frames keep their bodies).
   Observers are not carried over; the copy starts unobserved, as a
   freshly created machine does.  Only reads [m]. *)
let copy m =
  let copy_frame (f : frame) = { f with regs = Array.copy f.regs } in
  let thread_list =
    List.map (fun th -> { th with stack = List.map copy_frame th.stack }) m.thread_list
  in
  let threads = Hashtbl.copy m.threads in
  List.iter (fun th -> Hashtbl.replace threads th.tid th) thread_list;
  let out = Buffer.create (max 256 (Buffer.length m.out)) in
  Buffer.add_buffer out m.out;
  {
    m with
    heap = Heap.copy m.heap;
    class_objs = Hashtbl.copy m.class_objs;
    threads;
    thread_list;
    observers = [];
    client_classes = Hashtbl.copy m.client_classes;
    out;
  }

let new_thread m ?(client = true) ~(cm : Code.meth) ~recv ~args () =
  new_thread_internal m ~cm ~recv ~args ~spawned_client:client

let call m ?(client = true) ~(cm : Code.meth) ~recv ~args () =
  let tid = new_thread m ~client ~cm ~recv ~args () in
  run_thread_to_completion m tid ~fuel:default_fuel

let output m = Buffer.contents m.out
let heap m = m.heap
let unit_of m = m.cu
let frames_of m tid = (thread m tid).stack

let top_frame_th (th : thread) =
  match th.stack with [] -> None | f :: _ -> Some f

let top_frame m tid = top_frame_th (thread m tid)

let labels_used m = m.next_label
let crash_reason m tid =
  match status m tid with
  | Crashed msg -> Some msg
  | Runnable | Blocked_lock _ | Blocked_join _ | Suspended | Finished _ -> None

(* Freeze a thread: it is never scheduled again.  Used on the seed
   replay threads after their objects are collected (§3.4: execution is
   suspended before the invocation of interest). *)
let suspend m tid = (thread m tid).status <- Suspended
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

let pending_access_th m (th : thread) : pending_access option =
  match (peek_th th, th.stack) with
  | None, _ | _, [] -> None
  | Some (meth, pc, instr), f :: _ -> (
    let reg r = f.regs.(r) in
    let site = { Event.s_meth = meth.Code.cm_qname; s_pc = pc } in
    let of_obj r k field idx =
      match Value.addr_of (reg r) with
      | Some obj -> Some { pa_site = site; pa_obj = obj; pa_field = field; pa_idx = idx; pa_kind = k }
      | None -> None
    in
    match instr with
    | Code.Iget (_, o, field) -> of_obj o `Read field None
    | Code.Iset (o, field, _) -> of_obj o `Write field None
    | Code.Igetstatic (_, cls, field) -> (
      match Hashtbl.find_opt m.class_objs cls with
      | Some a ->
        Some { pa_site = site; pa_obj = a; pa_field = field; pa_idx = None; pa_kind = `Read }
      | None -> None)
    | Code.Isetstatic (cls, field, _) -> (
      match Hashtbl.find_opt m.class_objs cls with
      | Some a ->
        Some { pa_site = site; pa_obj = a; pa_field = field; pa_idx = None; pa_kind = `Write }
      | None -> None)
    | Code.Iaload (_, ar, ir) -> (
      match reg ir with
      | Value.Vint i -> of_obj ar `Read "[]" (Some i)
      | Value.Vnull | Value.Vbool _ | Value.Vstr _ | Value.Vref _ | Value.Vthread _ -> None)
    | Code.Iastore (ar, ir, _) -> (
      match reg ir with
      | Value.Vint i -> of_obj ar `Write "[]" (Some i)
      | Value.Vnull | Value.Vbool _ | Value.Vstr _ | Value.Vref _ | Value.Vthread _ -> None)
    | Code.Iconst _ | Code.Imove _ | Code.Ialen _ | Code.Inew _ | Code.Inewarr _
    | Code.Icall _ | Code.Ictor _ | Code.Icallstatic _ | Code.Iintrinsic _
    | Code.Ibinop _ | Code.Iunop _ | Code.Ijmp _ | Code.Ibr _ | Code.Iret _
    | Code.Ienter _ | Code.Iexit _ | Code.Ispawn _ | Code.Ijoin _
    | Code.Iassert _ | Code.Ithrow _ ->
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
let construct m ?(client = true) ~cls ~args () : (Value.t, string) result =
  match Code.find_cls m.cu cls with
  | None -> Error (Printf.sprintf "no such class %s" cls)
  | Some cc ->
    let addr = Heap.alloc_object m.heap ~cls ~field_tys:cc.Code.cc_fields in
    let recv = Value.Vref addr in
    let run cm =
      let tid = new_thread_internal m ~cm ~recv:(Some recv) ~args:(if cm.Code.cm_name = Code.fieldinit_name then [] else args) ~spawned_client:client in
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
