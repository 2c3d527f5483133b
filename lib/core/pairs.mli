(** Potential racy access pair generation (§3.3): an unprotected access
    can race with a concurrent execution of its own label or with any
    conflicting access to the same field of a potentially-aliased owner.
    Constructor accesses are discarded (§4). *)

(** One side of a pair: the client method a thread must invoke and where
    the racy field's owner sits relative to it. *)
type endpoint = {
  ep_qname : string;
  ep_cls : Jir.Ast.id;
  ep_meth : Jir.Ast.id;
  ep_occurrence : int;  (** which seed invocation to replay for objects *)
  ep_owner_path : Sym.t;
  ep_owner_cls : string option;
  ep_root_cls : string option;
  ep_site : Runtime.Event.site;
  ep_kind : Access.kind;
  ep_label : Runtime.Event.label;
}

type pair = { p_field : Jir.Ast.id; p_a : endpoint; p_b : endpoint }

val endpoint_of : Access.acc -> endpoint option
val pair_to_string : pair -> string

val key_of : pair -> Runtime.Event.site * Runtime.Event.site * Jir.Ast.id
(** Static identity, for dedup: the two sites ordered by
    {!Runtime.Event.compare_site}, then the field. *)

val generate : Access.result -> pair list
(** The deduplicated racy pairs of a trace analysis (Table 4's
    "Race Pairs" column), in the order of their first witnesses.  Only
    the first usable access of each (site, kind, field, owner class) is
    compared: a later one can add no new key. *)
