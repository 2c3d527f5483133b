(** Lock-discipline lint: static race candidates, unguarded writes to
    fields guarded elsewhere, dead sync regions, and a monitor-balance
    dataflow over compiled bytecode.  Output is sorted and
    deterministic (independent of [--jobs]). *)

(** The rendered per-unit output of [narada lint]: findings then a
    one-line footer, plus the severity totals (for [--strict]). *)
type block = { bl_text : string; bl_errors : int; bl_warnings : int }

val block :
  ?cache:Cache.t ->
  label:string ->
  source:string ->
  compile:(unit -> Jir.Code.unit_) ->
  unit ->
  block
(** Lint one unit.  With [?cache], the rendered block is cached keyed
    by (label, source bytes) — a warm re-lint of an unchanged unit
    skips parsing and analysis entirely — and class summaries are
    cached by content digest underneath, so an edited unit only
    re-summarizes its changed classes.  [compile] is only invoked on a
    block-cache miss and may raise {!Jir.Diag.Error}. *)
