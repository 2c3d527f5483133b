(* Execution-engine tests: the digest-keyed compiled-code cache, every
   machine running compiled code from creation, observed-vs-unobserved
   equivalence of the one engine (results, output, labels, races), label
   lockstep across a mid-run observer attach (on a racy program and on
   every C1-C9 seed test) and run_until_call edge cases. *)

open Runtime

let compile = Jir.Compile.compile_source

let racy_src =
  "class C { int count; void inc() { this.count = this.count + 1; } int get() \
   { return this.count; } } class Main { static int main() { C c = new C(); \
   thread t1 = spawn c.inc(); thread t2 = spawn c.inc(); join t1; join t2; \
   Sys.print(c.get()); return c.get(); } }"

(* --- digest cache ------------------------------------------------- *)

let test_digest_stability () =
  let d1 = Machine.Compiled.digest (compile racy_src) in
  let d2 = Machine.Compiled.digest (compile racy_src) in
  Alcotest.(check string) "same source, same digest" d1 d2;
  let d3 =
    Machine.Compiled.digest
      (compile "class Main { static int main() { return 1; } }")
  in
  Alcotest.(check bool) "different source, different digest" true (d1 <> d3)

let test_compiled_code_cached () =
  let c1 = Machine.Compiled.of_unit (compile racy_src) in
  let c2 = Backend.prepare Backend.Compiled (compile racy_src) in
  (* Same digest: the second lookup must hit the process-wide cache. *)
  Alcotest.(check bool) "physically shared" true (c1 == c2);
  Alcotest.(check bool) "some units" true (Machine.Compiled.units c1 > 0);
  Alcotest.(check bool) "some instrs" true
    (Machine.Compiled.instrs c1 > Machine.Compiled.units c1)

let compiled_units () =
  Obs.Metrics.counter_value (Obs.Metrics.global ()) "backend/compiled/units"

(* Machines made by the harness entry points, with no [?on_machine]
   hook, run compiled code, and each distinct unit is compiled exactly
   once however many machines run it. *)
let test_machines_compile_once () =
  (* a source no other case compiles, so its first machine compiles it *)
  let src =
    "class C { int v; void inc() { this.v = this.v + 1; } } class Seed { \
     static void test() { C c = new C(); c.inc(); c.inc(); } static int \
     main() { C c = new C(); thread t = spawn c.inc(); join t; return c.v; } }"
  in
  let cu = compile src in
  let before = compiled_units () in
  let _m, _tr, res =
    Interp.record cu ~client_classes:[ "Seed" ] ~cls:"Seed" ~meth:"test"
  in
  Alcotest.(check bool) "seed test ran" true (Result.is_ok res);
  (* [compile] bypasses the cache and its counters *)
  let units = Machine.Compiled.units (Machine.Compiled.compile cu) in
  Alcotest.(check int) "first machine compiled the unit" units
    (compiled_units () - before);
  let r, _m =
    Conc.Exec.run_program (compile src) ~client_classes:[ "Seed" ] ~cls:"Seed"
      ~meth:"main" (Conc.Scheduler.random ~seed:3L)
  in
  Alcotest.(check bool) "main ran" true (r.Conc.Exec.outcome = Conc.Exec.All_finished);
  let m = Machine.create ~client_classes:[ "Seed" ] cu in
  (match Interp.run_until_call m ~cls:"Seed" ~meth:"test" ~target_qname:"C.inc" ~nth:1 with
  | Some cap -> (
    match Machine.top_frame_th (Machine.find_thread m cap.Interp.cap_tid) with
    | Some f ->
      Alcotest.(check int) "frame carries its compiled body"
        (Array.length f.Machine.meth.Jir.Code.cm_code)
        (Array.length f.Machine.comp)
    | None -> Alcotest.fail "captured thread has no frame")
  | None -> Alcotest.fail "expected a capture");
  ignore (Backend.prepare Backend.Compiled cu);
  Alcotest.(check int) "no recompilation, same unit or same digest" units
    (compiled_units () - before)

(* --- observed vs unobserved --------------------------------------- *)

(* One run of [racy_src] under a seeded random schedule, observed from
   the start by a trace recorder, or not at all. *)
let run_racy ~observed ~seed =
  let cu = compile racy_src in
  let recorder = Trace.recorder () in
  let on_machine m = if observed then Machine.add_observer m Machine.Every_event (Trace.observer recorder) in
  let sched, picks = Testlib.Fixtures.recording (Conc.Scheduler.random ~seed) in
  let r, m =
    Conc.Exec.run_program ~seed cu ~client_classes:[ "Main" ] ~cls:"Main"
      ~meth:"main" ~on_machine sched
  in
  ( ( r.Conc.Exec.outcome,
      r.Conc.Exec.steps,
      picks (),
      Machine.output m,
      Machine.labels_used m ),
    Trace.snapshot recorder )

let test_equivalent_runs () =
  List.iter
    (fun seed ->
      let observed, trace = run_racy ~observed:true ~seed in
      let unobserved, _ = run_racy ~observed:false ~seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: identical run" seed)
        true (observed = unobserved);
      let _, _, _, _, labels = observed in
      Alcotest.(check int)
        (Printf.sprintf "seed %Ld: one label per event" seed)
        labels (Trace.length trace))
    [ 1L; 2L; 3L; 17L; 42L ]

let keys ls =
  List.sort Detect.Race.compare_key
    (List.map Detect.Race.key_of (Detect.Lockset.candidates ls))

(* Lockset attached halfway through an unobserved run reports what it
   reports when fed the same events from a run observed throughout. *)
let test_equivalent_races () =
  let seed = 5L in
  let (_, steps, _, _, _), full = run_racy ~observed:true ~seed in
  let cu = compile racy_src in
  let sched = Conc.Scheduler.random ~seed in
  let _, m =
    Conc.Exec.run_program ~fuel:(steps / 2) ~seed cu ~client_classes:[ "Main" ]
      ~cls:"Main" ~meth:"main" sched
  in
  let from = Machine.labels_used m in
  let late = Detect.Lockset.attach m in
  ignore (Conc.Exec.run m sched);
  let offline = Detect.Lockset.create () in
  Array.iter
    (fun ev -> if Event.label_of ev >= from then Detect.Lockset.observer offline ev)
    full;
  Alcotest.(check bool) "some candidates" true (keys offline <> []);
  Alcotest.(check int) "same candidate count" (List.length (keys offline))
    (List.length (keys late));
  List.iter2
    (fun a b -> Alcotest.(check int) "same candidate" 0 (Detect.Race.compare_key a b))
    (keys offline) (keys late)

(* Run [cls.meth()] under a seeded random schedule, observed by a trace
   recorder from the start ([k = None]) or from step [k] on.  Returns
   what the run did, the label the recorder attached at and the events
   it saw. *)
let observe_from cu ~client_classes ~cls ~meth k =
  let seed = 11L in
  let sched = Conc.Scheduler.random ~seed in
  let recorder = Trace.recorder () in
  let observe m = Machine.add_observer m Machine.Every_event (Trace.observer recorder) in
  let start ?fuel ?on_machine () =
    Conc.Exec.run_program ?fuel ?on_machine ~seed cu ~client_classes ~cls ~meth sched
  in
  let r, steps, m, from =
    match k with
    | None ->
      let r, m = start ~on_machine:observe () in
      (r, r.Conc.Exec.steps, m, 0)
    | Some k ->
      let head, m = start ~fuel:k () in
      let from = Machine.labels_used m in
      observe m;
      let r = Conc.Exec.run m sched in
      (r, head.Conc.Exec.steps + r.Conc.Exec.steps, m, from)
  in
  ( (r.Conc.Exec.outcome, steps, r.Conc.Exec.crashes, Machine.output m, Machine.labels_used m),
    from,
    Trace.snapshot recorder )

(* The events a mid-run observer sees are exactly the suffix of a run
   observed from the start, from the attach label on; observing changes
   nothing else.  Attaches at each of the run's first [first] steps, or
   by default at every sixteenth of the run. *)
let check_attach_points ?(first = 0) cu ~client_classes ~cls ~meth =
  let full, _, trace = observe_from cu ~client_classes ~cls ~meth None in
  let _, steps, _, _, labels = full in
  Alcotest.(check int) (cls ^ ": one label per event") labels (Trace.length trace);
  let points =
    if first > 0 then List.init (min first steps) Fun.id
    else List.init 17 (fun i -> i * steps / 16)
  in
  List.iter
    (fun k ->
      let late, from, tail = observe_from cu ~client_classes ~cls ~meth (Some k) in
      Alcotest.(check bool) (Printf.sprintf "%s step %d: same run" cls k) true (late = full);
      Alcotest.(check string)
        (Printf.sprintf "%s step %d: trace suffix" cls k)
        (Trace.to_string
           (Array.of_list
              (List.filter (fun ev -> Event.label_of ev >= from) (Array.to_list trace))))
        (Trace.to_string tail))
    points

let test_mid_run_attach () =
  check_attach_points ~first:200 (compile racy_src) ~client_classes:[ "Main" ]
    ~cls:"Main" ~meth:"main"

let test_mid_run_attach_corpus () =
  List.iter
    (fun (e : Corpus.Corpus_def.entry) ->
      check_attach_points (Corpus.Registry.compiled_unit e)
        ~client_classes:[ e.Corpus.Corpus_def.e_seed_cls ]
        ~cls:e.Corpus.Corpus_def.e_seed_cls ~meth:e.Corpus.Corpus_def.e_seed_meth)
    Corpus.Registry.all

(* --- run_until_call edge cases ------------------------------------ *)

let seed_src =
  "class C { int v; void inc() { this.v = this.v + 1; } } class Seed { static \
   void test() { C c = new C(); c.inc(); c.inc(); c.inc(); } }"

let fresh_seed_machine () =
  let cu = compile seed_src in
  (cu, Machine.create ~client_classes:[ "Seed" ] cu)

let test_until_call_counts () =
  let _cu, m = fresh_seed_machine () in
  match Interp.run_until_call m ~cls:"Seed" ~meth:"test" ~target_qname:"C.inc" ~nth:2 with
  | Some cap ->
    Alcotest.(check string) "third call captured" "C.inc"
      cap.Interp.cap_meth.Jir.Code.cm_qname;
    Alcotest.(check bool) "receiver present" true (cap.Interp.cap_recv <> None);
    (* the capture leaves the thread parked *before* the call *)
    Alcotest.(check bool) "thread still live" true
      (Machine.status m cap.Interp.cap_tid = Machine.Runnable)
  | None -> Alcotest.fail "expected a capture"

let test_until_call_nth_beyond () =
  let _cu, m = fresh_seed_machine () in
  (* only three invocations exist: asking for the fourth runs the seed
     test to completion and captures nothing *)
  match Interp.run_until_call m ~cls:"Seed" ~meth:"test" ~target_qname:"C.inc" ~nth:3 with
  | Some _ -> Alcotest.fail "no fourth invocation exists"
  | None -> ()

let test_until_call_fuel_exhaustion () =
  let _cu, m = fresh_seed_machine () in
  (* too little fuel to even reach the first invocation *)
  match
    Interp.run_until_call ~fuel:2 m ~cls:"Seed" ~meth:"test"
      ~target_qname:"C.inc" ~nth:0
  with
  | Some _ -> Alcotest.fail "fuel was too small to reach the call"
  | None -> ()

(* Library-internal invocations of the target must not count: only
   client-level calls are synthesis anchors. *)
let test_until_call_client_only () =
  let src =
    "class C { int v; void inc() { this.v = this.v + 1; } void twice() { \
     this.inc(); this.inc(); } } class Seed { static void test() { C c = new \
     C(); c.twice(); c.inc(); } }"
  in
  let cu = compile src in
  let m = Machine.create ~client_classes:[ "Seed" ] cu in
  match Interp.run_until_call m ~cls:"Seed" ~meth:"test" ~target_qname:"C.inc" ~nth:0 with
  | Some cap ->
    (* the two library-internal C.inc calls inside twice() are skipped;
       the first *client* C.inc is the one after c.twice(), by which
       point v is already 2 *)
    let v =
      match cap.Interp.cap_recv with
      | Some r -> Machine.deref_path m r [ "v" ]
      | None -> None
    in
    Alcotest.(check bool) "library calls skipped" true
      (v = Some (Value.Vint 2))
  | None -> Alcotest.fail "expected a capture"

let () =
  Alcotest.run "backend"
    [
      ( "cache",
        [
          Alcotest.test_case "digest stability" `Quick test_digest_stability;
          Alcotest.test_case "compiled code shared" `Quick test_compiled_code_cached;
          Alcotest.test_case "machines compile each unit once" `Quick
            test_machines_compile_once;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "runs" `Quick test_equivalent_runs;
          Alcotest.test_case "races" `Quick test_equivalent_races;
          Alcotest.test_case "mid-run attach" `Quick test_mid_run_attach;
          Alcotest.test_case "mid-run attach, C1-C9 seed tests" `Quick
            test_mid_run_attach_corpus;
        ] );
      ( "run_until_call",
        [
          Alcotest.test_case "nth capture" `Quick test_until_call_counts;
          Alcotest.test_case "nth beyond last" `Quick test_until_call_nth_beyond;
          Alcotest.test_case "fuel exhaustion" `Quick test_until_call_fuel_exhaustion;
          Alcotest.test_case "client calls only" `Quick test_until_call_client_only;
        ] );
    ]
