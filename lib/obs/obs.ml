(* Narada's observability layer: monotonic spans, process-wide metric
   registries, and a JSONL exporter.  See obs.mli for the contract.

   Determinism discipline — every metric is classified at the recording
   call site:

   - *stable* metrics (counters, histograms, span call counts) may only
     record quantities that are a pure function of the inputs and seeds,
     never of the schedule or the clock.  The exporter emits them as
     `"kind": "stable"` lines, sorted, and the whole stable section is
     byte-identical across `--jobs` values and across runs.
   - *volatile* metrics (gauges, span durations) carry wall-clock and
     pool-scheduling facts.  They are emitted after the stable section
     and are exactly the lines a determinism check strips.

   Registries are mutex-protected and every combine operation is
   commutative (sum, min, max), so concurrent recording from Par
   domains merges to the same state regardless of worker schedule. *)

module Clock = struct
  external monotonic_ns : unit -> int64 = "narada_obs_monotonic_ns"

  let ticks = monotonic_ns

  let elapsed_ns ~since = Int64.sub (monotonic_ns ()) since

  let elapsed_s ~since = Int64.to_float (elapsed_ns ~since) /. 1e9

  (* Wall clock, for report timestamps ONLY — never subtract two wall
     readings to measure a duration. *)
  let wall_unix_ms () = Int64.of_float (Unix.gettimeofday () *. 1000.0)
end

module Metrics = struct
  type histogram = { h_count : int; h_sum : int; h_min : int; h_max : int }

  type mhist = {
    mutable mh_count : int;
    mutable mh_sum : int;
    mutable mh_min : int;
    mutable mh_max : int;
  }

  type gauge_kind = Gsum | Gmax

  type mgauge = { mutable mg_value : float; mg_kind : gauge_kind }

  type mspan = { mutable ms_calls : int; mutable ms_ns : int64 }

  type t = {
    mu : Mutex.t;
    counters : (string, int ref) Hashtbl.t;
    hists : (string, mhist) Hashtbl.t;
    gauges : (string, mgauge) Hashtbl.t;
    span_tbl : (string, mspan) Hashtbl.t;
  }

  let create () =
    {
      mu = Mutex.create ();
      counters = Hashtbl.create 32;
      hists = Hashtbl.create 32;
      gauges = Hashtbl.create 32;
      span_tbl = Hashtbl.create 32;
    }

  let global_registry = create ()

  let global () = global_registry

  let locked t f =
    Mutex.lock t.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

  let reset t =
    locked t (fun () ->
        Hashtbl.reset t.counters;
        Hashtbl.reset t.hists;
        Hashtbl.reset t.gauges;
        Hashtbl.reset t.span_tbl)

  let incr ?(n = 1) t name =
    locked t (fun () ->
        match Hashtbl.find_opt t.counters name with
        | Some r -> r := !r + n
        | None -> Hashtbl.replace t.counters name (ref n))

  let counter_value t name =
    locked t (fun () ->
        match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0)

  let observe t name v =
    locked t (fun () ->
        match Hashtbl.find_opt t.hists name with
        | Some h ->
          h.mh_count <- h.mh_count + 1;
          h.mh_sum <- h.mh_sum + v;
          if v < h.mh_min then h.mh_min <- v;
          if v > h.mh_max then h.mh_max <- v
        | None ->
          Hashtbl.replace t.hists name
            { mh_count = 1; mh_sum = v; mh_min = v; mh_max = v })

  let gauge_update t name ~kind v =
    locked t (fun () ->
        match Hashtbl.find_opt t.gauges name with
        | Some g -> (
          match g.mg_kind with
          | Gsum -> g.mg_value <- g.mg_value +. v
          | Gmax -> if v > g.mg_value then g.mg_value <- v)
        | None -> Hashtbl.replace t.gauges name { mg_value = v; mg_kind = kind })

  let gauge_add t name v = gauge_update t name ~kind:Gsum v

  let gauge_max t name v = gauge_update t name ~kind:Gmax v

  let record_gc t =
    let st = Gc.quick_stat () in
    gauge_max t "gc/minor_words" st.Gc.minor_words;
    gauge_max t "gc/minor_collections" (float_of_int st.Gc.minor_collections)

  (* Called by Span.exit (and tests). *)
  let record_span t path ~ns =
    locked t (fun () ->
        match Hashtbl.find_opt t.span_tbl path with
        | Some s ->
          s.ms_calls <- s.ms_calls + 1;
          s.ms_ns <- Int64.add s.ms_ns ns
        | None -> Hashtbl.replace t.span_tbl path { ms_calls = 1; ms_ns = ns })

  let sorted_fold tbl f =
    let l = Hashtbl.fold (fun k v acc -> f k v :: acc) tbl [] in
    List.sort (fun (a, _) (b, _) -> String.compare a b) l

  let counters t =
    locked t (fun () -> sorted_fold t.counters (fun k r -> (k, !r)))

  let histograms t =
    locked t (fun () ->
        sorted_fold t.hists (fun k h ->
            ( k,
              {
                h_count = h.mh_count;
                h_sum = h.mh_sum;
                h_min = h.mh_min;
                h_max = h.mh_max;
              } )))

  let gauges t = locked t (fun () -> sorted_fold t.gauges (fun k g -> (k, g.mg_value)))

  let spans t =
    locked t (fun () -> sorted_fold t.span_tbl (fun k s -> (k, (s.ms_calls, s.ms_ns))))
    |> List.map (fun (k, (c, ns)) -> (k, c, ns))

  let span_calls t path =
    locked t (fun () ->
        match Hashtbl.find_opt t.span_tbl path with
        | Some s -> s.ms_calls
        | None -> 0)

  let span_ns t path =
    locked t (fun () ->
        match Hashtbl.find_opt t.span_tbl path with Some s -> s.ms_ns | None -> 0L)
end

module Span = struct
  type span = {
    sp_path : string;
    sp_start : int64;
    sp_reg : Metrics.t;
    mutable sp_open : bool;
  }

  (* Per-domain span stack: spans nest within one domain and Par worker
     domains start from an empty stack, so instrumentation that may run
     under a pool uses [~root:true] to get job-count-independent paths. *)
  let stack : span list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

  let enter ?registry ?(root = false) name =
    let reg = match registry with Some r -> r | None -> Metrics.global () in
    let st = Domain.DLS.get stack in
    let path =
      match !st with
      | parent :: _ when not root -> parent.sp_path ^ "/" ^ name
      | _ -> name
    in
    let sp = { sp_path = path; sp_start = Clock.ticks (); sp_reg = reg; sp_open = true } in
    st := sp :: !st;
    sp

  let exit sp =
    if sp.sp_open then begin
      sp.sp_open <- false;
      let ns = Clock.elapsed_ns ~since:sp.sp_start in
      let st = Domain.DLS.get stack in
      (* Tolerate a missed inner exit: unwind to this span. *)
      let rec unwind = function
        | s :: rest when s == sp -> rest
        | _ :: rest -> unwind rest
        | [] -> []
      in
      st := unwind !st;
      Metrics.record_span sp.sp_reg sp.sp_path ~ns
    end

  let with_ ?registry ?root name f =
    let sp = enter ?registry ?root name in
    Fun.protect ~finally:(fun () -> exit sp) f

  let observe sp name v = Metrics.observe sp.sp_reg (sp.sp_path ^ "#" ^ name) v
end

module Export = struct
  let schema = "narada.metrics/1"

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let json_str s = Printf.sprintf "\"%s\"" (escape s)

  (* A gauge value is wall-clock-ish; 6 fractional digits is plenty and
     keeps lines short. *)
  let json_float v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
    else Printf.sprintf "%.6f" v

  let obj fields =
    "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

  let meta_line ?(fields = []) () =
    obj
      ([
         ("kind", json_str "meta");
         ("schema", json_str schema);
         ("unix_ms", Int64.to_string (Clock.wall_unix_ms ()));
       ]
      @ fields)

  let counter_line ~name ~value =
    obj
      [
        ("kind", json_str "stable");
        ("type", json_str "counter");
        ("name", json_str name);
        ("value", string_of_int value);
      ]

  let histogram_line ~name (h : Metrics.histogram) =
    obj
      [
        ("kind", json_str "stable");
        ("type", json_str "histogram");
        ("name", json_str name);
        ("count", string_of_int h.Metrics.h_count);
        ("sum", string_of_int h.Metrics.h_sum);
        ("min", string_of_int h.Metrics.h_min);
        ("max", string_of_int h.Metrics.h_max);
      ]

  let span_line ~path ~calls =
    obj
      [
        ("kind", json_str "stable");
        ("type", json_str "span");
        ("path", json_str path);
        ("calls", string_of_int calls);
      ]

  let span_ns_line ~path ~ns =
    obj
      [
        ("kind", json_str "volatile");
        ("type", json_str "span_ns");
        ("path", json_str path);
        ("ns", Int64.to_string ns);
      ]

  let gauge_line ~name ~value =
    obj
      [
        ("kind", json_str "volatile");
        ("type", json_str "gauge");
        ("name", json_str name);
        ("value", json_float value);
      ]

  (* The export order is part of the schema: one meta line, then the
     stable section (counters, histograms, span call counts — each
     sorted by name), then the volatile section (span durations,
     gauges).  A determinism check keeps only the stable lines. *)
  let to_lines ?(meta = []) (t : Metrics.t) : string list =
    let counters =
      List.map (fun (name, value) -> counter_line ~name ~value) (Metrics.counters t)
    in
    let hists =
      List.map (fun (name, h) -> histogram_line ~name h) (Metrics.histograms t)
    in
    let spans = Metrics.spans t in
    let span_calls = List.map (fun (path, calls, _) -> span_line ~path ~calls) spans in
    let span_ns = List.map (fun (path, _, ns) -> span_ns_line ~path ~ns) spans in
    let gauges =
      List.map (fun (name, value) -> gauge_line ~name ~value) (Metrics.gauges t)
    in
    (meta_line ~fields:meta () :: counters) @ hists @ span_calls @ span_ns @ gauges

  let stable_prefix = "{\"kind\": \"stable\""

  let is_stable_line l =
    String.length l >= String.length stable_prefix
    && String.equal (String.sub l 0 (String.length stable_prefix)) stable_prefix

  let write_jsonl ~path ?meta t =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          (to_lines ?meta t))
end
