(* Static race analyzer tests: points-to, candidate generation, the
   static⊇dynamic inclusion on real corpus classes, the planted
   unsoundness, and determinism. *)

module D = Static.Dom

let analyze_closed src =
  let cu = Jir.Compile.compile_source src in
  Static.Analyze.run cu.Jir.Code.cu_program

let analyze_open src =
  let cu = Jir.Compile.compile_source src in
  Static.Analyze.run ~open_world:true cu.Jir.Code.cu_program

(* A sync-method write racing an unsynchronized read, exercised by a
   spawned thread: the canonical closed-world candidate. *)
let racy_src =
  {|
class C {
  int v;
  synchronized void set(int x) { this.v = x; }
  int get() { return this.v; }
}
class Main {
  static void main() {
    C c = new C();
    thread t = spawn c.set(1);
    int r = c.get();
    join t;
  }
}
|}

(* Both sides synchronized on the same monitor: no candidate. *)
let safe_src =
  {|
class C {
  int v;
  synchronized void set(int x) { this.v = x; }
  synchronized int get() { return this.v; }
}
class Main {
  static void main() {
    C c = new C();
    thread t = spawn c.set(1);
    int r = c.get();
    join t;
  }
}
|}

let test_closed_world_candidate () =
  let an = analyze_closed racy_src in
  Alcotest.(check bool) "covers set/get on v" true
    (Static.Analyze.covers an ~field:"v" ~m1:"C.set" ~m2:"C.get")

let test_closed_world_locked_clean () =
  let an = analyze_closed safe_src in
  Alcotest.(check bool) "no set/get candidate" false
    (Static.Analyze.covers an ~field:"v" ~m1:"C.set" ~m2:"C.get")

let test_no_spawn_no_candidates () =
  (* Closed world without spawns: nothing may happen in parallel. *)
  let src =
    {|
class C {
  int v;
  void set(int x) { this.v = x; }
}
class Main {
  static void main() { C c = new C(); c.set(1); }
}
|}
  in
  let an = analyze_closed src in
  Alcotest.(check int) "no candidates" 0
    (List.length (Static.Analyze.candidates an))

let test_drop_sync_mutation () =
  (* The planted unsoundness must lose the candidate whose write sits
     inside the sync region — that is what the Crucible oracle catches. *)
  let cu = Jir.Compile.compile_source racy_src in
  let sound = Static.Analyze.run cu.Jir.Code.cu_program in
  let mutated =
    Static.Analyze.run ~mutate:Static.Analyze.Drop_sync cu.Jir.Code.cu_program
  in
  Alcotest.(check bool) "sound covers" true
    (Static.Analyze.covers sound ~field:"v" ~m1:"C.set" ~m2:"C.get");
  Alcotest.(check bool) "mutated loses the pair" false
    (Static.Analyze.covers mutated ~field:"v" ~m1:"C.set" ~m2:"C.get")

(* Open world: cross-object operations alias through the library
   boundary even when the seed never passes the objects that way (the
   C4 DynamicBin1D pattern that synthesized tests exercise). *)
let test_open_world_param_alias () =
  let src =
    {|
class Bin {
  int size;
  synchronized void grow() { this.size = this.size + 1; }
  synchronized int peek(Bin other) { return other.size; }
}
class Main {
  static void main() {
    Bin a = new Bin();
    Bin b = new Bin();
    a.grow();
    int n = a.peek(b);
  }
}
|}
  in
  let opened = analyze_open src in
  Alcotest.(check bool) "open world sees the cross-object race" true
    (Static.Analyze.covers opened ~field:"size" ~m1:"Bin.grow" ~m2:"Bin.peek")

let test_determinism () =
  let keys an =
    List.map D.key_of (Static.Analyze.candidates an)
  in
  let a = analyze_open racy_src and b = analyze_open racy_src in
  Alcotest.(check (list (triple string string string)))
    "same candidates, same order" (keys a) (keys b)

(* ---- corpus-level properties ---- *)

let entry id =
  match Corpus.Registry.find id with
  | Some e -> e
  | None -> Alcotest.fail ("unknown corpus id " ^ id)

(* The race keys a class's evaluation detected, or only those the
   directed scheduler reproduced. *)
let race_keys ~reproduced id =
  let ce =
    match Eval.Evaluate.evaluate_class (entry id) with
    | Ok ce -> ce
    | Error msg -> Alcotest.fail (id ^ ": " ^ msg)
  in
  List.concat_map
    (fun (te : Eval.Evaluate.test_eval) ->
      List.filter_map
        (fun ro ->
          if reproduced && not ro.Eval.Evaluate.ro_reproduced then None
          else Some ro.Eval.Evaluate.ro_key)
        te.Eval.Evaluate.te_races)
    ce.Eval.Evaluate.cl_test_evals
  |> List.sort_uniq Detect.Race.compare_key

(* Every dynamically detected corpus race must be a static candidate in
   open-world mode — the same inclusion the Crucible oracle checks on
   random whole programs, here on the real benchmark classes.  X3 holds
   it for reproduced races only: its one lockset-only, unreproduced
   race is a write in MapEntry's constructor, and open world drops
   constructor writes as the pair generator does. *)
let test_corpus_superset ?(reproduced = false) ids () =
  List.iter
    (fun id ->
      let cu = Corpus.Registry.compiled_unit (entry id) in
      let an = Static.Analyze.run ~open_world:true cu.Jir.Code.cu_program in
      List.iter
        (fun (k : Detect.Race.key) ->
          Alcotest.(check bool)
            (id ^ " covers " ^ Detect.Race.key_to_string k)
            true
            (Static.Analyze.covers an ~field:k.Detect.Race.k_field
               ~m1:k.Detect.Race.k_site1.Runtime.Event.s_meth
               ~m2:k.Detect.Race.k_site2.Runtime.Event.s_meth))
        (race_keys ~reproduced id))
    ids

(* ---- per-class summaries: codec and digests ---- *)

let prog_of src = (Jir.Compile.compile_source src).Jir.Code.cu_program

(* The codec must be the identity on every class Crucible can generate:
   of_string (to_string s) == s, structurally. *)
let summary_roundtrip_qcheck =
  QCheck.Test.make ~count:60 ~name:"summary codec round-trip"
    QCheck.(map Int64.of_int small_int)
    (fun seed ->
      let src = Fuzz.Gen.to_source (Fuzz.Gen.generate ~seed) in
      List.for_all
        (fun c ->
          let s = Static.Summary.of_class c in
          match Static.Summary.of_string (Static.Summary.to_string s) with
          | Ok s' -> s = s'
          | Error _ -> false)
        (Jir.Program.classes (prog_of src)))

(* Crucible's generator reuses one [this] node throughout a program,
   so its ASTs share nodes that a parsed program never shares.  The
   analysis must read the tree, not node identity: a generated AST and
   its reparse give the same candidate keys in both worlds. *)
let node_sharing_qcheck =
  QCheck.Test.make ~count:60 ~name:"shared AST nodes change no candidate"
    QCheck.(map Int64.of_int small_int)
    (fun seed ->
      let p = Fuzz.Gen.generate ~seed in
      let keys open_world prog =
        List.map D.key_of
          (Static.Analyze.candidates (Static.Analyze.run ~open_world prog))
      in
      List.for_all
        (fun open_world ->
          keys open_world (Jir.Program.of_ast p)
          = keys open_world (prog_of (Fuzz.Gen.to_source p)))
        [ false; true ])

(* safe_src differs from racy_src only inside class C (and on the same
   line layout), so C's digest must change while Main's must not. *)
let test_digest_stability () =
  let class_of src name =
    List.find
      (fun (c : Jir.Ast.class_decl) -> String.equal c.Jir.Ast.c_name name)
      (Jir.Program.classes (prog_of src))
  in
  Alcotest.(check string)
    "digest is a pure function of the class"
    (Static.Summary.digest (class_of racy_src "C"))
    (Static.Summary.digest (class_of racy_src "C"));
  Alcotest.(check bool)
    "editing the class changes its digest" false
    (String.equal
       (Static.Summary.digest (class_of racy_src "C"))
       (Static.Summary.digest (class_of safe_src "C")));
  Alcotest.(check string)
    "untouched class keeps its digest"
    (Static.Summary.digest (class_of racy_src "Main"))
    (Static.Summary.digest (class_of safe_src "Main"))

(* ---- the on-disk cache: round-trip and recovery ---- *)

let tmpdir () =
  let d = Filename.temp_file "narada-cache-test" "" in
  Sys.remove d;
  d

let entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".entry")

let test_cache_roundtrip () =
  let dir = tmpdir () in
  let c = Static.Cache.open_dir dir in
  Static.Cache.store c ~kind:"sum" ~key:"k1" "payload\nwith lines\n";
  Alcotest.(check (option string))
    "find returns the stored payload"
    (Some "payload\nwith lines\n")
    (Static.Cache.find c ~kind:"sum" ~key:"k1");
  Alcotest.(check (option string))
    "other kind is a separate namespace" None
    (Static.Cache.find c ~kind:"lint" ~key:"k1");
  let c2 = Static.Cache.open_dir dir in
  Alcotest.(check (option string))
    "a second handle over the directory sees the entry"
    (Some "payload\nwith lines\n")
    (Static.Cache.find c2 ~kind:"sum" ~key:"k1")

let corrupt_with dir bytes =
  match entry_files dir with
  | [ f ] ->
    let oc = open_out (Filename.concat dir f) in
    output_string oc bytes;
    close_out oc
  | l -> Alcotest.failf "expected exactly 1 entry file, got %d" (List.length l)

let test_cache_corruption () =
  let dir = tmpdir () in
  let c = Static.Cache.open_dir dir in
  Static.Cache.store c ~kind:"sum" ~key:"k" "payload";
  corrupt_with dir "garbage that is not a cache entry\n";
  Alcotest.(check (option string))
    "corrupt entry reads as a miss" None
    (Static.Cache.find c ~kind:"sum" ~key:"k");
  Alcotest.(check (list string)) "corrupt entry is deleted" [] (entry_files dir);
  Static.Cache.store c ~kind:"sum" ~key:"k" "payload";
  Alcotest.(check (option string))
    "storing again recovers" (Some "payload")
    (Static.Cache.find c ~kind:"sum" ~key:"k")

let test_cache_truncation () =
  let dir = tmpdir () in
  let c = Static.Cache.open_dir dir in
  Static.Cache.store c ~kind:"sum" ~key:"k" "payload";
  (* a header cut mid-way through (torn write) must not be trusted *)
  corrupt_with dir (String.sub Static.Cache.schema 0 7);
  Alcotest.(check (option string))
    "truncated entry reads as a miss" None
    (Static.Cache.find c ~kind:"sum" ~key:"k");
  Alcotest.(check (list string))
    "truncated entry is deleted" [] (entry_files dir)

let test_cache_version_mismatch () =
  let dir = tmpdir () in
  let c = Static.Cache.open_dir dir in
  Static.Cache.store c ~kind:"sum" ~key:"k" "payload";
  let oc = open_out (Filename.concat dir "version") in
  output_string oc "narada.staticcache/0\n";
  close_out oc;
  let c2 = Static.Cache.open_dir dir in
  Alcotest.(check (list string))
    "reopening over a stale schema wipes the entries" []
    (entry_files dir);
  Alcotest.(check (option string))
    "wiped entry is a miss" None
    (Static.Cache.find c2 ~kind:"sum" ~key:"k");
  Static.Cache.store c2 ~kind:"sum" ~key:"k" "fresh";
  Alcotest.(check (option string))
    "the store works again after the wipe" (Some "fresh")
    (Static.Cache.find c2 ~kind:"sum" ~key:"k")

(* ---- incremental == from-scratch, and the planted staleness ---- *)

let render an = List.map D.cand_to_string (Static.Analyze.candidates an)

(* Warm the cache on the safe variant, then analyze the racy one: Main
   hits, C re-summarizes, and the result must be byte-identical to an
   uncached run. *)
let test_incremental_equals_scratch () =
  let cache = Static.Cache.in_memory () in
  ignore (Static.Analyze.run ~cache (prog_of safe_src));
  let warm = Static.Analyze.run ~cache (prog_of racy_src) in
  let cold = Static.Analyze.run (prog_of racy_src) in
  Alcotest.(check (list string))
    "incremental == from-scratch" (render cold) (render warm);
  Alcotest.(check bool) "candidate found through the warm cache" true
    (Static.Analyze.covers warm ~field:"v" ~m1:"C.set" ~m2:"C.get")

(* The stale-cache mutation keys by class name, so the racy C silently
   reuses the safe C's summary and the candidate disappears — the bug
   the static-incremental oracle exists to catch. *)
let test_stale_cache_mutation () =
  let cache = Static.Cache.in_memory () in
  ignore
    (Static.Analyze.run ~mutate:Static.Analyze.Stale_cache ~cache
       (prog_of safe_src));
  let stale =
    Static.Analyze.run ~mutate:Static.Analyze.Stale_cache ~cache
      (prog_of racy_src)
  in
  Alcotest.(check bool) "stale summary hides the candidate" false
    (Static.Analyze.covers stale ~field:"v" ~m1:"C.set" ~m2:"C.get")

(* A cached summary that decodes but indexes past its own tables (here
   a temp count of 0) is rejected like an undecodable one: evicted and
   summarized afresh, with the from-scratch result. *)
let test_cache_out_of_range_payload () =
  let prog = prog_of racy_src in
  let c =
    List.find
      (fun (c : Jir.Ast.class_decl) -> String.equal c.Jir.Ast.c_name "C")
      (Jir.Program.classes prog)
  in
  let damaged =
    Static.Summary.to_string (Static.Summary.of_class c)
    |> String.split_on_char '\n'
    |> List.map (fun l -> if String.starts_with ~prefix:"class " l then "class C 0" else l)
    |> String.concat "\n"
  in
  Alcotest.(check bool) "out-of-range summary is rejected" true
    (Result.is_error (Static.Summary.of_string damaged));
  let cache = Static.Cache.in_memory () in
  Static.Cache.store cache ~kind:"sum" ~key:(Static.Summary.digest c) damaged;
  let reg = Obs.Metrics.global () in
  let evictions () = Obs.Metrics.counter_value reg "static/cache/evictions" in
  let before = evictions () in
  let warm = Static.Analyze.run ~cache prog in
  Alcotest.(check int) "damaged entry evicted" 1 (evictions () - before);
  Alcotest.(check (list string))
    "same candidates as from scratch"
    (render (Static.Analyze.run prog))
    (render warm)

(* ---- corpus-scale counters ---- *)

(* Open-world candidate counts of the nine Table 3 classes. *)
let test_corpus_candidate_counts () =
  List.iter2
    (fun (e : Corpus.Corpus_def.entry) (id, n) ->
      Alcotest.(check string) "class order" id e.Corpus.Corpus_def.e_id;
      let cu = Corpus.Registry.compiled_unit e in
      let an = Static.Analyze.run ~open_world:true cu.Jir.Code.cu_program in
      Alcotest.(check int) (id ^ " candidates") n
        (List.length (Static.Analyze.candidates an)))
    Corpus.Registry.all
    [
      ("C1", 62); ("C2", 111); ("C3", 28); ("C4", 60); ("C5", 229);
      ("C6", 135); ("C7", 14); ("C8", 24); ("C9", 13);
    ]

(* Consecutive Crucible programs from generator seed 1000 until the
   class count reaches [target]. *)
let generated_units ~target =
  let rec go i acc classes =
    if classes >= target then (List.rev acc, classes)
    else
      let p = Fuzz.Gen.generate ~seed:(Int64.of_int (1000 + i)) in
      go (i + 1) ((Printf.sprintf "P%03d" i, p) :: acc) (classes + List.length p)
  in
  go 0 [] 0

(* Drop the last statement of the last non-empty method body of the
   last class that has one.  Editing at the very end keeps the printed
   source of every other class byte-identical (no line shifts), so
   exactly one class digest changes. *)
let drop_last_stmt (prog : Jir.Ast.program) : Jir.Ast.program =
  let rec edit_meths = function
    | [] -> None
    | (m : Jir.Ast.method_decl) :: ms -> (
      match List.rev m.Jir.Ast.m_body with
      | [] -> Option.map (fun ms' -> m :: ms') (edit_meths ms)
      | _ :: rev_body -> Some ({ m with Jir.Ast.m_body = List.rev rev_body } :: ms))
  in
  let rec edit_classes = function
    | [] -> []
    | (c : Jir.Ast.class_decl) :: rest -> (
      match edit_meths (List.rev c.Jir.Ast.c_methods) with
      | Some mrev -> { c with Jir.Ast.c_methods = List.rev mrev } :: rest
      | None -> c :: edit_classes rest)
  in
  List.rev (edit_classes (List.rev prog))

(* [narada lint] over 341 generated units (1,002 classes) on one
   summary cache: a cold run summarizes every class, a warm re-run
   none, and a one-statement edit exactly the edited class. *)
let test_lint_cache_at_scale () =
  let units, classes = generated_units ~target:1000 in
  Alcotest.(check int) "units" 341 (List.length units);
  Alcotest.(check int) "classes" 1002 classes;
  let cache = Static.Cache.in_memory () in
  let summarized sources =
    let reg = Obs.Metrics.global () in
    let before = Obs.Metrics.counter_value reg "static/summarized" in
    List.iter
      (fun (label, source) ->
        ignore
          (Static.Lint.block ~cache ~label ~source
             ~compile:(fun () -> Jir.Compile.compile_source source)
             ()))
      sources;
    Obs.Metrics.counter_value reg "static/summarized" - before
  in
  let sources = List.map (fun (l, p) -> (l, Fuzz.Gen.to_source p)) units in
  Alcotest.(check int) "cold summarizes every class" 1002 (summarized sources);
  Alcotest.(check int) "warm summarizes nothing" 0 (summarized sources);
  let edited =
    List.mapi
      (fun i (l, p) ->
        (l, Fuzz.Gen.to_source (if i = 0 then drop_last_stmt p else p)))
      units
  in
  Alcotest.(check int) "one-statement edit re-summarizes one class" 1
    (summarized edited)

let () =
  Alcotest.run "static"
    [
      ( "candidates",
        [
          Alcotest.test_case "closed-world race" `Quick
            test_closed_world_candidate;
          Alcotest.test_case "common lock suppresses" `Quick
            test_closed_world_locked_clean;
          Alcotest.test_case "no spawn, no MHP" `Quick
            test_no_spawn_no_candidates;
          Alcotest.test_case "drop-sync mutation is unsound" `Quick
            test_drop_sync_mutation;
          Alcotest.test_case "open-world param aliasing" `Quick
            test_open_world_param_alias;
          Alcotest.test_case "deterministic" `Quick test_determinism;
        ] );
      ( "summaries",
        [
          Testlib.Fixtures.qcheck_case summary_roundtrip_qcheck;
          Testlib.Fixtures.qcheck_case node_sharing_qcheck;
          Alcotest.test_case "digest stability" `Quick test_digest_stability;
        ] );
      ( "cache",
        [
          Alcotest.test_case "store/find round-trip" `Quick
            test_cache_roundtrip;
          Alcotest.test_case "corrupt entry recovery" `Quick
            test_cache_corruption;
          Alcotest.test_case "truncated entry recovery" `Quick
            test_cache_truncation;
          Alcotest.test_case "version mismatch wipes" `Quick
            test_cache_version_mismatch;
          Alcotest.test_case "incremental == from-scratch" `Quick
            test_incremental_equals_scratch;
          Alcotest.test_case "stale-cache mutation is unsound" `Quick
            test_stale_cache_mutation;
          Alcotest.test_case "out-of-range payload is re-summarized" `Quick
            test_cache_out_of_range_payload;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "C9 static superset of dynamic" `Slow
            (test_corpus_superset [ "C9" ]);
          Alcotest.test_case "C4 static superset of dynamic" `Slow
            (test_corpus_superset [ "C4" ]);
          Alcotest.test_case "C1-C3 static superset of dynamic" `Slow
            (test_corpus_superset [ "C1"; "C2"; "C3" ]);
          Alcotest.test_case "C5-C8 static superset of dynamic" `Slow
            (test_corpus_superset [ "C5"; "C6"; "C7"; "C8" ]);
          Alcotest.test_case "X1-X2 static superset of dynamic" `Slow
            (test_corpus_superset [ "X1"; "X2" ]);
          Alcotest.test_case "X3 static superset of reproduced" `Slow
            (test_corpus_superset ~reproduced:true [ "X3" ]);
          Alcotest.test_case "lint cache: 1002 cold, 0 warm, 1 edited" `Slow
            test_lint_cache_at_scale;
          Alcotest.test_case "C1-C9 open-world candidate counts" `Quick
            test_corpus_candidate_counts;
        ] );
    ]
