(** Static racy-pair generation: conflicting accesses to a may-aliased
    field where at least one side is spawn-reachable and the two sides
    hold no common lock.  A write may also race with itself (two
    threads executing the same statement). *)

val generate :
  ?drop_sync:bool ->
  ?exclude_init:bool ->
  Dom.esc ->
  Dom.acc list ->
  Dom.cand list
(** Candidates in deterministic discovery order, deduplicated by
    {!Dom.key_of}.  [~drop_sync:true] is the planted unsoundness used
    to validate the Crucible static⊇dynamic oracle: accesses inside
    sync regions are discarded before pairing.  [~exclude_init:true]
    discards constructor/field-initializer accesses, mirroring the
    dynamic pair generator (used by the open-world mode). *)
