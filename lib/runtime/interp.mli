(** Sequential execution driver: runs seed tests to completion
    (recording traces for the analysis) and implements the paper's
    suspension mechanism (§3.4) — run a sequential test and suspend it
    just before a chosen client-level invocation so the object
    references about to be passed can be collected. *)

val record :
  ?seed:int64 ->
  ?fuel:int ->
  ?on_machine:(Machine.t -> unit) ->
  Jir.Code.unit_ ->
  client_classes:Jir.Ast.id list ->
  cls:Jir.Ast.id ->
  meth:Jir.Ast.id ->
  Machine.t * Trace.t * (Value.t option, string) result
(** Run static method [cls.meth()] on a fresh machine, recording the
    trace.  [on_machine] runs right after machine creation, before any
    stepping; the machine already runs compiled code, so the hook only
    serves callers that attach observers or inspect the fresh state. *)

(** A suspended capture: the invocation about to happen. *)
type captured = {
  cap_meth : Jir.Code.meth;
  cap_recv : Value.t option;
  cap_args : Value.t list;
  cap_tid : Value.tid;  (** the suspended replay thread *)
}

val run_until_call :
  ?fuel:int ->
  Machine.t ->
  cls:Jir.Ast.id ->
  meth:Jir.Ast.id ->
  target_qname:string ->
  nth:int ->
  captured option
(** Start [cls.meth()] on a fresh thread of [m] and run it until just
    before its [nth] (0-based) client-level invocation of
    [target_qname]; the thread is left at that point.  [None] if the
    test ends first.  A step resolves its call and checks its caller
    only when the instruction names the method of [target_qname]
    (["<init>"] for a constructor), as every call of it does. *)
