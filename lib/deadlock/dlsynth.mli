(** Deadlock test synthesis: instantiate an ABBA lock-order pair as a
    two-thread test with the lock owners cross-unified, then confirm
    the deadlock with a directed scheduler that delays inner monitor
    acquisitions until every racy thread holds its outer lock. *)

type test = {
  dt_pair : Lockorder.pair;
  dt_seed_cls : Jir.Ast.id;
  dt_seed_meth : Jir.Ast.id;
}

type confirmation = {
  co_deadlocked : bool;
  co_threads : Runtime.Value.tid list;
  co_schedule : string;  (** which scheduler confirmed ("directed", ...) *)
}

type result_row = {
  rr_pair : Lockorder.pair;
  rr_confirmed : confirmation option;
}

val run :
  Jir.Code.unit_ ->
  client_classes:Jir.Ast.id list ->
  seed_cls:Jir.Ast.id ->
  seed_meth:Jir.Ast.id ->
  (result_row list, string) result
(** End-to-end: extract lock orders, synthesize one test per ABBA pair,
    confirm each. *)
