(** Observability: monotonic spans, process-wide metric registries, and
    a JSONL exporter.

    Every metric is classified at the recording call site:

    - {e stable} metrics (counters, histograms, span call counts) may
      only record quantities that are pure functions of the inputs and
      seeds.  The exported stable section is byte-identical across
      [--jobs] values and across runs.
    - {e volatile} metrics (gauges, span durations) carry wall-clock
      and pool-scheduling facts; a determinism check strips them.

    Registries are thread-safe and every update commutes (counters and
    span calls add, histograms keep count, sum, min and max), so
    recording from [Par] worker domains in any interleaving exports the
    same stable section. *)

module Clock : sig
  val ticks : unit -> int64
  (** Monotonic clock, nanoseconds from an arbitrary origin.  Never
      goes backwards; the only legal source for durations. *)

  val elapsed_s : since:int64 -> float
end

module Metrics : sig
  type t

  type histogram = { h_count : int; h_sum : int; h_min : int; h_max : int }

  val create : unit -> t

  val global : unit -> t
  (** The process-wide registry that all built-in instrumentation
      records into. *)

  val reset : t -> unit

  val incr : ?n:int -> t -> string -> unit
  val counter_value : t -> string -> int

  val observe : t -> string -> int -> unit
  (** Record one histogram sample (count/sum/min/max are kept). *)

  val gauge_add : t -> string -> float -> unit
  (** Volatile gauge combined by summation. *)

  val record_gc : t -> unit
  (** Set the volatile gauges [gc/minor_words] and
      [gc/minor_collections] to the process's totals so far
      ([Gc.quick_stat]): minor-heap allocation is what bounds
      multi-domain throughput, so an artifact should show it. *)

  val record_span : t -> string -> ns:int64 -> unit
  (** Low-level span recording (normally via {!Span}). *)

  val histograms : t -> (string * histogram) list
  (** Sorted by name; likewise below. *)

  val gauges : t -> (string * float) list

  val spans : t -> (string * int * int64) list
  (** [(path, calls, total_ns)], sorted by path. *)

  val span_calls : t -> string -> int
  val span_ns : t -> string -> int64
end

module Span : sig
  type span

  val enter : ?registry:Metrics.t -> ?root:bool -> string -> span
  (** Start a span.  The path nests under the current domain's
      innermost open span ([a] inside [b] records as ["b/a"]) unless
      [~root:true], which anchors the path at the top level —
      instrumentation that may run on a [Par] worker uses [~root] so
      paths do not depend on the job count. *)

  val exit : span -> unit
  (** Stop the span and record one call plus its monotonic duration
      into the registry.  Idempotent. *)

  val with_ : ?registry:Metrics.t -> ?root:bool -> string -> (unit -> 'a) -> 'a

  val observe : span -> string -> int -> unit
  (** Per-span histogram sample, recorded as ["<path>#<name>"]. *)
end

module Export : sig
  val to_lines : ?meta:(string * string) list -> Metrics.t -> string list
  (** JSONL records: one meta line (schema + wall-clock timestamp +
      caller fields, values pre-rendered as JSON), then the stable
      section (counters, histograms, span call counts; sorted), then
      the volatile section (span durations, gauges). *)

  val write_jsonl : path:string -> ?meta:(string * string) list -> Metrics.t -> unit

  val is_stable_line : string -> bool

  val json_str : string -> string
end
