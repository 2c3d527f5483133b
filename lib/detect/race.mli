(** Race reports shared by all detectors: a pair of accesses to the same
    variable from different threads, at least one a write. *)

type access = {
  a_tid : Runtime.Value.tid;
  a_site : Runtime.Event.site;
  a_kind : [ `Read | `Write ];
  a_obj : Runtime.Value.addr;
  a_field : Jir.Ast.id;
  a_idx : int option;
  a_locks : Runtime.Value.addr list;  (** locks held at the access *)
  a_label : Runtime.Event.label;
  a_value : Runtime.Value.t;
}

type report = { r_first : access; r_second : access; r_detector : string }

(** The static identity of a race: unordered site pair plus field name;
    Table 5 counts are over these keys. *)
type key = {
  k_site1 : Runtime.Event.site;
  k_site2 : Runtime.Event.site;
  k_field : Jir.Ast.id;
}

val key_of : report -> key
val compare_key : key -> key -> int
val key_to_string : key -> string
val to_string : report -> string

val dedup : report list -> report list
(** Deduplicate by static key, keeping the first witness. *)
