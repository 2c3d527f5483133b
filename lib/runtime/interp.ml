(* Sequential execution driver.

   Runs seed tests to completion (recording traces for the Narada
   analysis) and supports the paper's suspension mechanism (§3.4): run a
   sequential test and suspend it just *before* a chosen client-level
   library invocation so the object references about to be passed can be
   collected and reused by a synthesized multithreaded test. *)

open Jir

let find_entry cu ~cls ~meth =
  match Code.find_static cu cls meth with
  | Some cm -> cm
  | None -> Diag.error "no static entry point %s.%s" cls meth

(* Run static method [cls.meth()] on a fresh machine; returns the
   machine and the recorded trace. *)
let record ?(seed = Machine.default_seed) ?(fuel = Machine.default_fuel)
    ?(on_machine = fun (_ : Machine.t) -> ()) (cu : Code.unit_)
    ~client_classes ~cls ~meth : Machine.t * Trace.t * (Value.t option, string) result =
  let m = Machine.create ~client_classes ~seed cu in
  on_machine m;
  let rec_ = Trace.attach m in
  let cm = find_entry cu ~cls ~meth in
  let tid = Machine.new_thread m ~cm ~recv:None ~args:[] () in
  let res = Machine.run_thread_to_completion m tid ~fuel in
  let trace = Trace.snapshot rec_ in
  (* The snapshot is a copy and [m], which callers keep, holds the
     recorder: drop its chunks now. *)
  Trace.recycle rec_;
  (m, trace, res)

type captured = {
  cap_meth : Code.meth; (* target about to be invoked *)
  cap_recv : Value.t option;
  cap_args : Value.t list;
  cap_tid : Value.tid; (* the suspended thread *)
}

(* The method name in a qualified name "Cls.name": what a call
   instruction that can resolve to it names. *)
let method_name qname =
  match String.rindex_opt qname '.' with
  | Some i -> String.sub qname (i + 1) (String.length qname - i - 1)
  | None -> qname

(* Start [cls.meth()] on [m] and run it until just before the [nth]
   (0-based) client-level invocation of [target_qname]; leave the thread
   suspended there.  Returns [None] if the test finishes without
   reaching the invocation.

   This loop runs once per instruction of the seed test, for every
   endpoint and every recipe setter of every test built, and almost no
   instruction is a call of the target.  So each step first decodes the
   instruction at the pc ([Machine.at_call_named_th]) and resolves the
   callee, builds its arguments and checks that the caller is client
   code only when the instruction names the target's method.  That is
   exact: a qualified name is "<defining class>.<method name>" and a
   call resolves to a method of the name it carries ("<init>" for a
   constructor), so a call the filter skips cannot resolve to
   [target_qname], and every step that matches, and every count of
   earlier matches, is the one the unfiltered loop sees.  A step that
   is not a name match allocates nothing here. *)
let run_until_call ?(fuel = Machine.default_fuel) (m : Machine.t) ~cls ~meth
    ~target_qname ~nth : captured option =
  let cu = Machine.unit_of m in
  let cm = find_entry cu ~cls ~meth in
  let tid = Machine.new_thread m ~cm ~recv:None ~args:[] () in
  (* Hoist the thread record: the record-based queries skip the
     per-step tid lookups. *)
  let th = Machine.find_thread m tid in
  let target_name = method_name target_qname in
  let count = ref 0 in
  let client_caller () =
    match Machine.top_frame_th th with
    | Some f -> Machine.is_client_frame m f
    | None -> true
  in
  let rec loop n =
    if n <= 0 then None
    else if not (Machine.at_call_named_th th target_name) then step_and_continue n
    else
      match Machine.pending_call_th m th with
      | Some (target, recv, args)
        when String.equal target.Code.cm_qname target_qname && client_caller () ->
        if !count = nth then
          Some { cap_meth = target; cap_recv = recv; cap_args = args; cap_tid = tid }
        else (
          incr count;
          step_and_continue n)
      | Some _ | None -> step_and_continue n
  and step_and_continue n =
    match Machine.step_th m th with
    | Machine.Stepped -> (
      match Machine.status_th th with
      | Machine.Finished _ | Machine.Crashed _ | Machine.Suspended -> None
      | Machine.Runnable | Machine.Blocked_lock _ | Machine.Blocked_join _ ->
        loop (n - 1))
    | Machine.Blocked | Machine.Not_runnable -> None
  in
  loop fuel
