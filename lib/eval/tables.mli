(** Textual rendering of the paper's tables and figure, with the paper's
    numbers alongside ours (shape, not absolute values — see
    EXPERIMENTS.md). *)

val table3 : unit -> string
(** Table 3: benchmark information. *)

val table4 : Evaluate.class_eval list -> string
(** Table 4: race pairs, synthesized tests, synthesis time. *)

val table5 : Evaluate.class_eval list -> string
(** Table 5: races detected / reproduced / harmful / benign. *)

val fig14 : Evaluate.class_eval list -> string
(** Figure 14: distribution of tests w.r.t. detected races, as a
    percentage table plus an ASCII rendering. *)

type contege_row = {
  cr_id : string;
  cr_campaign : Contege.campaign;
  cr_narada_races : int;
}

val contege_rows : ?budget:int -> Evaluate.class_eval list -> contege_row list
(** One {!Contege.campaign} per class ([budget] random tests, default
    {!Contege.default_budget}; 5 schedules, seed 11). *)

val contege_table : contege_row list -> string
(** The §5 ConTeGe comparison. *)
