(** The synchronization-repair grammar (ferrite-style): the space of
    candidate patches for one confirmed race, enumerated in added-sync
    cost order.

    Three primitive edits per racy side — synchronize the whole method,
    wrap the smallest top-level statement span covering the racy
    accesses in [synchronized (lock)], or replace the mutex of an
    existing wrapper that already covers them — under one of three lock
    disciplines:

    - {b common lock}: both sides hold one lock drawn from the
      program's own vocabulary ([this] and every portable monitor
      operand the racy classes already use);
    - {b owner lock}: each access holds the monitor of the object it
      goes through (the [other] of [other.f]) — the natural fix for
      cross-object races where no single lock text covers both sides;
    - {b global lock}: a fresh marker class ([NaradaLock]) plus a
      [static] lock field on the first racy class, wrapped around both
      sides — the coarse, deadlock-free fallback for symmetric
      cross-object races whose owner-lock repair would invert a lock
      order.

    Cost model (smaller = less added synchronization):
    - keeping an already-guarded side costs 0;
    - replacing the mutex of an existing wrapper costs {!cost_replace}
      (no new region is created);
    - wrapping a span costs {!cost_wrap} plus the structural size of
      the statements newly serialized;
    - synchronizing a method costs {!cost_sync_method} plus the size of
      its whole body (the coarsest local edit);
    - a global-lock candidate additionally pays {!cost_global} for the
      introduced class and field (the coarsest repair overall).

    A candidate's cost is the sum over its actions; {!candidates}
    returns the list sorted by (cost, description) so the first
    validated candidate is minimal w.r.t. the grammar. *)

type side = { sd_cls : Jir.Ast.id; sd_meth : Jir.Ast.id }

type race_id = { rid_field : Jir.Ast.id; rid_a : side; rid_b : side }
(** Static identity of a race for repair purposes: field plus the
    unordered pair of methods containing the racy accesses (sides are
    stored in canonical order). *)

val race_id_of_key : Detect.Race.key -> (race_id, string) result
val race_id_to_string : race_id -> string
val compare_race_id : race_id -> race_id -> int

val key_matches : race_id -> Detect.Race.key -> bool
(** Does a detector report key denote this race (same field, same
    unordered method pair)? *)

type lockref = { lr_text : string; lr_expr : Jir.Ast.expr }
(** A lock operand with its canonical printed text. *)

type action =
  | Keep of side  (** already guarded under the candidate's discipline *)
  | Sync_method of side  (** implicit lock: [this] *)
  | Wrap_block of {
      wb_side : side;
      wb_from : int;
      wb_len : int;
      wb_lock : lockref;
    }
  | Replace_mutex of {
      rm_side : side;
      rm_occurrence : int;
      rm_old : string;
      rm_lock : lockref;
    }

type candidate = {
  ca_mode : string;  (** lock-discipline description, for the report *)
  ca_global : Jir.Ast.id option;
      (** class to receive the fresh static lock field (global mode) *)
  ca_actions : action list;  (** canonical side order; [Keep]s included *)
  ca_cost : int;
}

val cost_replace : int
val cost_wrap : int
val cost_sync_method : int
val cost_global : int

val candidate_to_string : candidate -> string

val candidates : Jir.Ast.program -> race_id -> candidate list
(** Every grammar candidate for the race, deduplicated and sorted by
    (cost, description).  Empty when a racy side cannot be located in
    the program. *)

val apply : Jir.Ast.program -> candidate -> (Jir.Ast.program, string) result
(** Apply the candidate's edits (introducing the global lock first when
    the candidate calls for one); the result still needs the full
    validation stack (compile, behavior, deadlock, re-detection). *)
