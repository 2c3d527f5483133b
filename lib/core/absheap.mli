(** The heap abstraction H of §3.1, built by folding execution events.

    The trace carries concrete addresses, so aliasing is exact and H
    reduces to per-address state: a *controllable* flag (client can
    reach/steer the object), a lock depth, and a shadow heap used to
    resolve [src] — the I-path of the enclosing client invocation that
    reaches an address. *)

(** One invocation's metadata (filled from Invoke/Param events). *)
type frame_info = {
  fi_frame : Runtime.Event.frame_id;
  fi_qname : string;
  fi_cls : Jir.Ast.id;
  fi_meth : Jir.Ast.id;
  fi_static : bool;
  fi_client : bool;  (** crossed the client→library boundary *)
  fi_caller : Runtime.Event.frame_id option;
  fi_label : Runtime.Event.label;
  fi_occurrence : int;  (** among client invocations of the same qname *)
  mutable fi_iroots : (int * Runtime.Value.addr) list;  (** pos → address *)
}

type t

val create : client_classes:Jir.Ast.id list -> t
val is_client_class : t -> Jir.Ast.id -> bool

val consume : t -> Runtime.Event.t -> unit
(** Fold one event (the Fig. 7 evaluation relation). *)

val controllable : t -> Runtime.Value.addr -> bool
val locked : t -> Runtime.Value.addr -> bool
val class_of : t -> Runtime.Value.addr -> string option
val frame_info : t -> Runtime.Event.frame_id -> frame_info option

val shadow_fields :
  t -> Runtime.Value.addr -> (Jir.Ast.id, Runtime.Value.t) Hashtbl.t option

val mark_controllable_deep : t -> Runtime.Value.addr -> unit
(** Mark an address and everything currently reachable from it
    controllable (the deep initialization the paper's R performs on
    client-invocation parameters). *)

val client_anchor : t -> Runtime.Event.frame_id -> frame_info option
(** Nearest enclosing client-boundary invocation. *)

val src : t -> frame_info -> Runtime.Value.addr -> Sym.t option
(** src(x, H): the shortest I-path of the anchor reaching the address
    through the shadow heap (deterministic BFS). *)
