(* lint-generated: Crucible programs from [Fuzz.Gen.generate], seeded by
   the workload seed.  Each unit is linted cold, then again after a
   one-class edit against the same summary cache, as [narada lint
   --cache] does.  A verdict is one unit through [Static.Lint.block].
   The cache is the in-memory store, which has the on-disk store's
   semantics without its file-system time: on a shared host the disk
   would dominate both the time and its run-to-run spread. *)

open Harness

type unit_ = { label : string; source : string; edited : string }

(* Drop the last statement of the last non-empty method body of the
   last class that has one: the printed source of every other class
   stays byte-identical, so exactly one class digest changes. *)
let drop_last_stmt (prog : Jir.Ast.program) : Jir.Ast.program =
  let rec edit_meths = function
    | [] -> None
    | (m : Jir.Ast.method_decl) :: ms ->
      if m.Jir.Ast.m_body = [] then Option.map (fun ms' -> m :: ms') (edit_meths ms)
      else
        let n = List.length m.Jir.Ast.m_body in
        Some
          ({ m with Jir.Ast.m_body = List.filteri (fun i _ -> i < n - 1) m.Jir.Ast.m_body }
          :: ms)
  in
  let rec edit_classes = function
    | [] -> []
    | (c : Jir.Ast.class_decl) :: rest -> (
      match edit_meths (List.rev c.Jir.Ast.c_methods) with
      | Some mrev -> { c with Jir.Ast.c_methods = List.rev mrev } :: rest
      | None -> c :: edit_classes rest)
  in
  List.rev (edit_classes (List.rev prog))

(* A fixed number of programs (about 3000 classes at full size), one
   generator seed per program derived from the workload seed. *)
let units ~seed size =
  let n = match size with Args.Full -> 1000 | Args.Tiny -> 20 in
  List.init n (fun i ->
      let p = Fuzz.Gen.generate ~seed:(Par.seed ~base:(Int64.of_int seed) ~index:i) in
      {
        label = Printf.sprintf "G%04d" i;
        source = Fuzz.Gen.to_source p;
        edited = Fuzz.Gen.to_source (drop_last_stmt p);
      })

let instr_count (cu : Jir.Code.unit_) =
  let meth (m : Jir.Code.meth) = Array.length m.Jir.Code.cm_code in
  let meths l = List.fold_left (fun a (_, m) -> a + meth m) 0 l in
  Hashtbl.fold
    (fun _ (c : Jir.Code.cls) acc ->
      acc
      + Option.fold ~none:0 ~some:meth c.Jir.Code.cc_fieldinit
      + meths c.Jir.Code.cc_ctors + meths c.Jir.Code.cc_methods
      + meths c.Jir.Code.cc_static_methods)
    cu.Jir.Code.cu_classes 0

type counts = { bytes : int ref; instrs : int ref }

(* [Jir.Compile.compile_source], phase by phase.  [compile_unit]
   type-checks again internally, so jir.compile_s includes a type check
   and the separate jir.typecheck_s call is tracing overhead. *)
let compile_traced k source () =
  k.bytes := !(k.bytes) + String.length source;
  let ast = Tracer.span "jir.parse" (fun () -> Jir.Parser.parse_program source) in
  ignore (Tracer.span "jir.typecheck" (fun () -> Jir.Typecheck.check_program ast));
  let cu = Tracer.span "jir.compile" (fun () -> Jir.Compile.compile_unit ast) in
  k.instrs := !(k.instrs) + instr_count cu;
  cu

let lint ?cache ~label source ~compile =
  match (Static.Lint.block ?cache ~label ~source ~compile ()).Static.Lint.bl_text with
  | text -> Ok text
  | exception Jir.Diag.Error d -> Error (Jir.Diag.to_string d)
  | exception ex -> Error (Printexc.to_string ex)

(* One pass over a fresh cache: per unit, the cold and the edited
   verdict, in that order. *)
let pass ?traced units : (float * (string, string) result) list =
  let cache = Static.Cache.in_memory () in
  List.concat
    (List.mapi
       (fun i u ->
         List.map
           (fun source ->
             let m = Speed.mark () in
             let r =
               match traced with
               | None ->
                 lint ~cache ~label:u.label source ~compile:(fun () ->
                     Jir.Compile.compile_source source)
               | Some k ->
                 Tracer.request ~req:i "static.lint" (fun () ->
                     lint ~cache ~label:u.label source ~compile:(compile_traced k source))
             in
             (snd (Speed.since m), r))
           [ u.source; u.edited ])
       units)

let text = function Ok t -> t | Error e -> "error: " ^ e

let race_lines t =
  List.length
    (List.filter
       (fun l ->
         let pat = "static race candidate" in
         let n = String.length pat in
         let rec has i = i + n <= String.length l && (String.sub l i n = pat || has (i + 1)) in
         has 0)
       (String.split_on_char '\n' t))

let answer units p =
  let rec pairs = function a :: b :: rest -> (a, b) :: pairs rest | _ -> [] in
  List.map2
    (fun u ((_, c), (_, e)) -> (u.label, md5 (text c ^ "\x00" ^ text e)))
    units (pairs p)

let run (a : Args.t) : report =
  Speed.start cpu;
  let setup_s, units = timed_setup (fun () -> units ~seed:a.Args.seed a.Args.size) in
  let classes =
    List.fold_left
      (fun s u -> s + List.length (Jir.Parser.parse_program u.source))
      0 units
  in
  let budget =
    Printf.sprintf "units=%d classes=%d seed=%d jobs=1 cache=in-memory edit=one-class"
      (List.length units) classes a.Args.seed
  in
  let k = { bytes = ref 0; instrs = ref 0 } in
  let res =
    Harness.run ~seconds:a.Args.seconds ~trace:a.Args.trace ~clock:cpu
      {
        untraced = (fun () -> pass units);
        traced = (fun () -> Tracer.span "lint.pass" (fun () -> pass ~traced:k units));
        verdicts = List.map (fun (s, r) -> (Some s, Result.is_error r));
        answer = answer units;
      }
  in
  Speed.stop ();
  let rate, samples = all_passes res in
  let observed = res.first in
  let observed =
    match (a.Args.plant, observed) with
    | Some "block", (s, r) :: rest -> (s, Ok (text r ^ "planted: one altered line\n")) :: rest
    | _ -> observed
  in
  let races =
    List.fold_left (fun s (_, r) -> s + race_lines (text r)) 0
      (List.filteri (fun i _ -> i mod 2 = 0) observed)
  in
  (* The same units linted without any cache: what the cached cold and
     edited blocks must equal. *)
  let scratch =
    List.concat_map
      (fun u ->
        List.map
          (fun source ->
            ( 0.0,
              lint ~label:u.label source ~compile:(fun () -> Jir.Compile.compile_source source) ))
          [ u.source; u.edited ])
      units
  in
  let problems =
    reference_problems a ~answer:(answer units observed) ~races
    @ List.map
        (fun id -> "lint-generated: the cached blocks of " ^ id ^ " differ from an uncached lint")
        (differing (answer units observed) (answer units scratch))
    @ res.problems
  in
  Printf.printf "lint: %d units, %d classes, %d static race candidates in the cold blocks\n"
    (List.length units) classes races;
  let layers =
    if not a.Args.trace then []
    else begin
      let spans = Tracer.collect () in
      write_spans ~scratch:a.Args.scratch ~workload:a.Args.workload ~seed:a.Args.seed ~meta:[]
        spans;
      let np = float_of_int (max 1 res.traced_passes) in
      let by = Tracer.by_name spans in
      let self = self res by and per = per_pass res in
      let analyze = per "static/summary" +. per "static/link" in
      let pass_s =
        List.fold_left
          (fun acc (sp : Tracer.span) ->
            if sp.Tracer.name = "lint.pass" then acc +. (Tracer.dur_ns sp /. 1e9) else acc)
          0.0 spans
        /. np
      in
      [ ("jir.parse_s", self "jir.parse"); ("jir.typecheck_s", self "jir.typecheck");
        ("jir.compile_s", self "jir.compile");
        ("jir.source_bytes", float_of_int !(k.bytes) /. np);
        ("jir.instrs", float_of_int !(k.instrs) /. np);
        ("static.lint_s", self "static.lint" -. analyze); ("static.analyze_s", analyze);
        ("static.summarized", per "static/summarized");
        ("static.cache_hits", per "static/cache/hits");
        ("static.cache_misses", per "static/cache/misses");
        ("static.candidates", float_of_int races);
        ("trace.overhead_frac", overhead res);
        ("trace.unattributed_frac", self "lint.pass" /. pass_s) ]
    end
  in
  {
    setup_s;
    attempted = res.attempted;
    failed = res.failed;
    rate;
    samples;
    passes = List.length res.pass_stats;
    races;
    rss_mb = res.peak_rss_mb;
    steal = res.steal_s;
    speed = Speed.index ();
    budget;
    problems;
    layers;
  }
