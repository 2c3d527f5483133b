(* Virtual machine tests: evaluation, objects, dispatch, monitors,
   threads, crashes, intrinsics, determinism. *)

open Runtime

(* Run [Main.main()] to completion: its result and [Sys.print] output. *)
let run_cu ?(seed = 42L) cu =
  let m, _trace, res =
    Interp.record ~seed cu ~client_classes:[ "Main" ] ~cls:"Main" ~meth:"main"
  in
  (res, Machine.output m)

let run_main ?seed src = run_cu ?seed (Jir.Compile.compile_source src)

let expect_int name src expected =
  match run_main src with
  | Ok (Some (Value.Vint n)), _ -> Alcotest.(check int) name expected n
  | Ok v, _ ->
    Alcotest.failf "%s: expected int, got %s" name
      (match v with Some v -> Value.to_string v | None -> "nothing")
  | Error e, _ -> Alcotest.failf "%s: crashed: %s" name e

let expect_crash name src fragment =
  match run_main src with
  | Error e, _ ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      nn = 0 || go 0
    in
    if not (contains e fragment) then
      Alcotest.failf "%s: crash %S does not mention %S" name e fragment
  | Ok _, _ -> Alcotest.failf "%s: expected a crash" name

let wrap body = "class Main { static int main() { " ^ body ^ " } }"

let test_arith () =
  expect_int "arith" (wrap "return 2 + 3 * 4 - 10 / 2;") 9;
  expect_int "mod" (wrap "return 17 % 5;") 2;
  expect_int "neg" (wrap "int x = 5; return -x + 1;") (-4);
  expect_int "cmp"
    (wrap "if (3 < 4 && 4 <= 4 && 5 > 4 && 5 >= 5 && 1 == 1 && 1 != 2) { return 1; } return 0;")
    1

let test_short_circuit () =
  (* The right operand must not be evaluated: it would crash. *)
  expect_int "and shortcut"
    "class Main { static bool boom() { throw \"boom\"; } static int main() { \
     bool b = false && Main.boom(); if (b) { return 1; } return 0; } }"
    0;
  expect_int "or shortcut"
    "class Main { static bool boom() { throw \"boom\"; } static int main() { \
     bool b = true || Main.boom(); if (b) { return 1; } return 0; } }"
    1

let test_control_flow () =
  expect_int "while loop" (wrap "int s = 0; int i = 1; while (i <= 10) { s = s + i; i = i + 1; } return s;") 55;
  expect_int "nested if"
    (wrap "int x = 7; if (x > 5) { if (x > 6) { return 2; } return 1; } return 0;")
    2

let test_objects () =
  expect_int "fields and methods"
    "class P { int x; int y; P(int x, int y) { this.x = x; this.y = y; } int \
     sum() { return this.x + this.y; } } class Main { static int main() { P \
     p = new P(3, 4); return p.sum(); } }"
    7;
  expect_int "field init runs"
    "class A { int x = 41; } class Main { static int main() { A a = new A(); \
     return a.x + 1; } }"
    42;
  expect_int "inherited field init order"
    "class B { int x = 1; } class A extends B { int y = 2; A() { this.y = \
     this.x + this.y; } } class Main { static int main() { A a = new A(); \
     return a.y; } }"
    3

let test_dispatch () =
  expect_int "virtual dispatch"
    "class B { int f() { return 1; } } class A extends B { int f() { return \
     2; } } class Main { static int main() { B b = new A(); return b.f(); } }"
    2;
  expect_int "interface dispatch"
    "interface I { int f(); } class A implements I { int f() { return 5; } } \
     class Main { static int main() { I i = new A(); return i.f(); } }"
    5;
  expect_int "inherited concrete method"
    "class B { int f() { return this.g(); } int g() { return 1; } } class A \
     extends B { int g() { return 9; } } class Main { static int main() { A \
     a = new A(); return a.f(); } }"
    9

let test_statics () =
  expect_int "static fields and clinit"
    "class Cfg { static int base = 40; static int get() { return Cfg.base; } \
     } class Main { static int main() { Cfg.base = Cfg.base + 1; return \
     Cfg.get() + 1; } }"
    42

let test_arrays () =
  expect_int "array rw" (wrap "int[] a = new int[3]; a[1] = 7; return a[1] + a.length;") 10;
  expect_int "arraycopy"
    (wrap
       "int[] a = new int[5]; a[0] = 1; a[1] = 2; Sys.arraycopy(a, 0, a, 2, 2); return a[2] * 10 + a[3];")
    12;
  expect_int "object arrays"
    "class P { int v; P(int v) { this.v = v; } } class Main { static int \
     main() { P[] ps = new P[2]; ps[0] = new P(6); return ps[0].v; } }"
    6

let test_strings () =
  expect_int "string intrinsics"
    (wrap "str s = Sys.concat(\"ab\", \"cd\"); return Sys.strlen(s) * 100 + Sys.charAt(s, 1);")
    498

let test_crashes () =
  expect_crash "npe"
    "class P { int f() { return 1; } } class Main { static int main() { P p \
     = null; return p.f(); } }"
    "null pointer";
  expect_crash "div by zero" (wrap "int z = 0; return 1 / z;") "division by zero";
  expect_crash "array oob" (wrap "int[] a = new int[2]; return a[5];") "out of bounds";
  expect_crash "negative array size" (wrap "int[] a = new int[0 - 1]; return 0;") "negative";
  expect_crash "assert" (wrap "assert 1 == 2; return 0;") "assertion failed";
  expect_crash "throw" (wrap "throw \"custom failure\";") "custom failure"

let test_crash_mentions_npe_method () =
  (* A second method so the receiver type exists. *)
  expect_crash "npe via field"
    "class P { int v; } class Main { static int main() { P p = null; return \
     p.v; } }"
    "null pointer"

let test_monitor_reentrancy () =
  expect_int "reentrant sync methods"
    "class A { synchronized int outer() { return this.inner() + 1; } \
     synchronized int inner() { return 1; } } class Main { static int main() \
     { A a = new A(); return a.outer(); } }"
    2;
  expect_int "nested sync blocks"
    "class A { int v; void m() { synchronized (this) { synchronized (this) { \
     this.v = 5; } } } int get() { return this.v; } } class Main { static \
     int main() { A a = new A(); a.m(); return a.get(); } }"
    5

let test_spawn_join () =
  let cu = Jir.Compile.compile_source Testlib.Fixtures.safe_counter in
  let r, m =
    Conc.Exec.run_program cu ~client_classes:[ "Main" ] ~cls:"Main"
      ~meth:"main" (Conc.Scheduler.random ~seed:3L)
  in
  Alcotest.(check bool) "finished" true (r.Conc.Exec.outcome = Conc.Exec.All_finished);
  Alcotest.(check (list (pair int string))) "no crashes" [] r.Conc.Exec.crashes;
  (* The synchronized counter always reaches exactly 2. *)
  match Machine.status m 0 with
  | Machine.Finished (Some (Value.Vint 2)) -> ()
  | s ->
    Alcotest.failf "expected main to return 2, got %s"
      (match s with
      | Machine.Finished (Some v) -> Value.to_string v
      | Machine.Finished None -> "()"
      | Machine.Crashed e -> "crash " ^ e
      | Machine.Runnable | Machine.Blocked_lock _ | Machine.Blocked_join _
      | Machine.Suspended ->
        "not finished")

let test_lost_update_exists () =
  (* Under some schedule the racy counter loses an update.  Exhaustively
     try seeds; at least one must yield 1 and at least one 2. *)
  let cu = Jir.Compile.compile_source Testlib.Fixtures.racy_counter in
  let results = ref [] in
  for seed = 1 to 60 do
    let r, m =
      Conc.Exec.run_program cu ~client_classes:[ "Main" ] ~cls:"Main"
        ~meth:"main"
        (Conc.Scheduler.random ~seed:(Int64.of_int seed))
    in
    Alcotest.(check (list (pair int string))) "no crashes" [] r.Conc.Exec.crashes;
    match Machine.status m 0 with
    | Machine.Finished (Some (Value.Vint n)) -> results := n :: !results
    | _ -> Alcotest.fail "did not finish"
  done;
  Alcotest.(check bool) "some schedule loses an update" true (List.mem 1 !results);
  Alcotest.(check bool) "some schedule is clean" true (List.mem 2 !results)

let test_blocked_lock () =
  (* Thread 1 holds the monitor; thread 2 blocks until it is released. *)
  let src =
    "class A { int v; synchronized void slow() { int i = 0; while (i < 50) { \
     i = i + 1; } this.v = this.v + 1; } } class Main { static int main() { \
     A a = new A(); thread t1 = spawn a.slow(); thread t2 = spawn a.slow(); \
     join t1; join t2; return a.v; } }"
  in
  let cu = Jir.Compile.compile_source src in
  for seed = 1 to 10 do
    let _r, m =
      Conc.Exec.run_program cu ~client_classes:[ "Main" ] ~cls:"Main"
        ~meth:"main"
        (Conc.Scheduler.random ~seed:(Int64.of_int seed))
    in
    match Machine.status m 0 with
    | Machine.Finished (Some (Value.Vint 2)) -> ()
    | _ -> Alcotest.fail "monitor failed to serialize increments"
  done

let test_deadlock_detected () =
  let cu = Jir.Compile.compile_source Testlib.Fixtures.deadlock in
  let deadlocks = ref 0 in
  for seed = 1 to 40 do
    let r, _m =
      Conc.Exec.run_program cu ~client_classes:[ "Main" ] ~cls:"Main"
        ~meth:"main"
        (Conc.Scheduler.random ~seed:(Int64.of_int seed))
    in
    match r.Conc.Exec.outcome with
    | Conc.Exec.Deadlock tids ->
      incr deadlocks;
      Alcotest.(check bool) "two threads involved" true (List.length tids >= 2)
    | Conc.Exec.All_finished | Conc.Exec.Fuel_exhausted -> ()
  done;
  Alcotest.(check bool) "some schedule deadlocks" true (!deadlocks > 0)

let test_crash_releases_monitors () =
  (* A thread that throws inside synchronized must release the lock so
     others can proceed. *)
  let src =
    "class A { int v; synchronized void boom() { this.v = 1; throw \"bad\"; \
     } synchronized void ok() { this.v = 2; } } class Main { static int \
     main() { A a = new A(); thread t1 = spawn a.boom(); join t1; thread t2 \
     = spawn a.ok(); join t2; return a.v; } }"
  in
  let cu = Jir.Compile.compile_source src in
  let r, m =
    Conc.Exec.run_program cu ~client_classes:[ "Main" ] ~cls:"Main" ~meth:"main"
      (Conc.Scheduler.round_robin ())
  in
  Alcotest.(check int) "one crash" 1 (List.length r.Conc.Exec.crashes);
  match Machine.status m 0 with
  | Machine.Finished (Some (Value.Vint 2)) -> ()
  | _ -> Alcotest.fail "lock was not released after the crash"

let test_rand_deterministic () =
  let src = wrap "return Sys.randInt(1000) * 1000 + Sys.randInt(1000);" in
  let v1 = run_main ~seed:9L src and v2 = run_main ~seed:9L src in
  let v3 = run_main ~seed:10L src in
  (match (v1, v2) with
  | (Ok (Some a), _), (Ok (Some b), _) ->
    Alcotest.(check bool) "same seed, same stream" true (Value.equal a b)
  | _ -> Alcotest.fail "rand run failed");
  match (v1, v3) with
  | (Ok (Some a), _), (Ok (Some b), _) ->
    Alcotest.(check bool) "different seed, different stream" false
      (Value.equal a b)
  | _ -> Alcotest.fail "rand run failed"

let test_print_output () =
  let cu =
    Jir.Compile.compile_source
      "class Main { static void main() { Sys.print(42); Sys.print(true); \
       Sys.print(\"hi\"); } }"
  in
  let _res, out = run_cu cu in
  Alcotest.(check string) "captured output" "42\ntrue\n\"hi\"\n" out

let test_construct_api () =
  let cu =
    Jir.Compile.compile_source
      "class P { int v; int w = 3; P(int v) { this.v = v; } int sum() { \
       return this.v + this.w; } }"
  in
  let m = Machine.create cu in
  match Machine.construct m ~cls:"P" ~args:[ Value.Vint 4 ] () with
  | Error e -> Alcotest.fail e
  | Ok recv -> (
    match Jir.Code.find_virtual cu "P" "sum" with
    | None -> Alcotest.fail "no sum"
    | Some cm -> (
      match Machine.call m ~cm ~recv:(Some recv) ~args:[] () with
      | Ok (Some (Value.Vint 7)) -> ()
      | Ok _ | Error _ -> Alcotest.fail "construct+call broken"))

let test_pending_on_finished_thread () =
  (* A finished thread has an empty frame stack; probing it for a
     pending call/access must answer None, not raise. *)
  let cu =
    Jir.Compile.compile_source
      "class P { int v; void poke() { this.v = this.v + 1; } }"
  in
  let m = Machine.create cu in
  match Machine.construct m ~cls:"P" ~args:[] () with
  | Error e -> Alcotest.fail e
  | Ok recv -> (
    match Jir.Code.find_virtual cu "P" "poke" with
    | None -> Alcotest.fail "no poke"
    | Some cm -> (
      let tid = Machine.new_thread m ~cm ~recv:(Some recv) ~args:[] () in
      match Machine.run_thread_to_completion m tid ~fuel:1000 with
      | Error e -> Alcotest.fail e
      | Ok _ ->
        Alcotest.(check bool) "no pending call" true
          (Machine.pending_call_th m (Machine.find_thread m tid) = None)))

let test_deref_path () =
  let cu = Jir.Compile.compile_source Testlib.Fixtures.fig1 in
  let m = Machine.create ~client_classes:[ "Seed" ] cu in
  match Machine.construct m ~cls:"Lib" ~args:[] () with
  | Error e -> Alcotest.fail e
  | Ok lib -> (
    match Machine.deref_path m lib [ "c"; "count" ] with
    | Some (Value.Vint 0) -> ()
    | Some v -> Alcotest.failf "expected 0, got %s" (Value.to_string v)
    | None -> Alcotest.fail "path did not resolve")

let test_for_loops () =
  expect_int "for sum" (wrap "int s = 0; for (int i = 1; i <= 10; i = i + 1) { s = s + i; } return s;") 55;
  expect_int "for no init"
    (wrap "int i = 0; int s = 0; for (; i < 3; i = i + 1) { s = s + 10; } return s;")
    30;
  expect_int "for no update"
    (wrap "int s = 0; for (int i = 0; i < 3;) { s = s + 1; i = i + 1; } return s;")
    3;
  expect_int "nested for"
    (wrap
       "int s = 0; for (int i = 0; i < 3; i = i + 1) { for (int j = 0; j < 3;         j = j + 1) { s = s + 1; } } return s;")
    9

let test_break_continue () =
  expect_int "break"
    (wrap "int s = 0; for (int i = 0; i < 100; i = i + 1) { if (i == 5) { break; } s = s + 1; } return s;")
    5;
  expect_int "continue"
    (wrap "int s = 0; for (int i = 0; i < 10; i = i + 1) { if (i % 2 == 0) { continue; } s = s + 1; } return s;")
    5;
  expect_int "break in while"
    (wrap "int i = 0; while (true) { i = i + 1; if (i == 7) { break; } } return i;")
    7;
  expect_int "continue in while"
    (wrap
       "int i = 0; int s = 0; while (i < 6) { i = i + 1; if (i == 3) {         continue; } s = s + i; } return s;")
    18;
  expect_int "break inner loop only"
    (wrap
       "int s = 0; for (int i = 0; i < 3; i = i + 1) { for (int j = 0; j <         10; j = j + 1) { if (j == 2) { break; } s = s + 1; } } return s;")
    6

let test_break_releases_monitor () =
  (* break out of a synchronized block inside the loop must release the
     monitor so a second use of the object still works. *)
  expect_int "break exits sync block"
    "class A { int v; int m() { for (int i = 0; i < 5; i = i + 1) {      synchronized (this) { if (i == 2) { break; } this.v = this.v + 1; } }      synchronized (this) { this.v = this.v + 10; } return this.v; } } class      Main { static int main() { A a = new A(); return a.m(); } }"
    12

let test_continue_releases_monitor () =
  expect_int "continue exits sync block"
    "class A { int v; int m() { for (int i = 0; i < 4; i = i + 1) {      synchronized (this) { if (i % 2 == 0) { continue; } this.v = this.v + 1;      } } return this.v; } } class Main { static int main() { A a = new A();      return a.m(); } }"
    2

let test_typecheck_loop_placement () =
  (match Jir.Compile.compile_source "class A { void m() { break; } }" with
  | _ -> Alcotest.fail "break outside loop must be rejected"
  | exception Jir.Diag.Error _ -> ());
  match Jir.Compile.compile_source "class A { void m() { continue; } }" with
  | _ -> Alcotest.fail "continue outside loop must be rejected"
  | exception Jir.Diag.Error _ -> ()

let test_for_roundtrip () =
  let src =
    "class A { int m() { int s = 0; for (int i = 0; i < 4; i = i + 1) { if      (i == 2) { continue; } s = s + i; } return s; } }"
  in
  let p1 = Jir.Pretty.program_to_string (Jir.Parser.parse_program src) in
  let p2 = Jir.Pretty.program_to_string (Jir.Parser.parse_program p1) in
  Alcotest.(check string) "for round-trips" p1 p2

(* [pending_access_th] is what the race-directed scheduler pauses on,
   so it must name exactly the access the next step performs.  Oracle:
   over one seeded random run of every synthesized test of C1-C9 and
   X1-X3, observed, each step's field and array events are compared
   with what [pending_access_th] said just before it.  [Some pa]: the
   step emits that one access (same thread, site, object, field, index
   and kind), or crashes the thread before accessing anything.  [None]:
   the step emits no access, except [Sys.arraycopy], whose element
   accesses the scheduler deliberately does not pause at. *)
let access_of_event = function
  | Event.Read { tid; site; obj; field; idx; _ } ->
    Some
      ( tid,
        { Machine.pa_site = site; pa_obj = obj; pa_field = field; pa_idx = idx; pa_kind = `Read } )
  | Event.Write { tid; site; obj; field; idx; _ } ->
    Some
      ( tid,
        { Machine.pa_site = site; pa_obj = obj; pa_field = field; pa_idx = idx; pa_kind = `Write } )
  | _ -> None

let is_arraycopy th =
  match Machine.peek_th th with
  | Some (_, _, Jir.Code.Iintrinsic (_, Jir.Intrinsics.Arraycopy, _)) -> true
  | Some _ | None -> false

type tally = { mutable some : int; mutable none : int; mutable crashed : int }

(* One observed random run; fails on the first step the oracle rejects. *)
let check_pending_run ~what ~seed ~fuel n m =
  let emitted = ref [] in
  Machine.add_observer m Machine.Sync_and_access (fun ev ->
      match access_of_event ev with Some a -> emitted := a :: !emitted | None -> ());
  let rng = Rng.create seed in
  let rec go fuel =
    if fuel > 0 then
      match List.filter (Machine.runnable_th m) (Machine.all_threads m) with
      | [] -> ()
      | ths ->
        let th = List.nth ths (Rng.below rng (List.length ths)) in
        let tid = Machine.thread_id th in
        let pending = Machine.pending_access_th m th in
        let arraycopy = is_arraycopy th in
        emitted := [];
        ignore (Machine.step_th m th);
        let crashed =
          match Machine.status_th th with
          | Machine.Crashed _ -> true
          | Machine.Runnable | Machine.Blocked_lock _ | Machine.Blocked_join _
          | Machine.Suspended | Machine.Finished _ ->
            false
        in
        (match (pending, List.rev !emitted) with
        | Some pa, [ (t, a) ] when t = tid && a = pa -> n.some <- n.some + 1
        | Some _, [] when crashed -> n.crashed <- n.crashed + 1
        | None, [] -> n.none <- n.none + 1
        | None, _ :: _ when arraycopy -> ()
        | Some pa, got ->
          Alcotest.failf "%s: thread %d pending at %s.%s, step emitted %d accesses"
            what tid
            (Event.site_to_string pa.Machine.pa_site)
            pa.Machine.pa_field (List.length got)
        | None, got ->
          Alcotest.failf "%s: thread %d had no pending access, step emitted %d" what
            tid (List.length got));
        go (fuel - 1)
  in
  go fuel

(* [f what t inst] on every instantiable synthesized test of the corpus
   and its extras. *)
let each_corpus_instance f =
  List.iter
    (fun (e : Corpus.Corpus_def.entry) ->
      match Eval.Evaluate.analyze_entry e with
      | Error msg -> Alcotest.failf "%s: %s" e.Corpus.Corpus_def.e_id msg
      | Ok (_, an) ->
        List.iter
          (fun (t : Narada_core.Synth.test) ->
            match Narada_core.Pipeline.instantiator an t () with
            | Error _ -> ()
            | Ok inst ->
              let what =
                Printf.sprintf "%s #%d" e.Corpus.Corpus_def.e_id t.Narada_core.Synth.st_id
              in
              f what t inst)
          an.Narada_core.Pipeline.an_tests)
    (Corpus.Registry.all @ Corpus.Registry.extras)

let test_pending_access_oracle () =
  let n = { some = 0; none = 0; crashed = 0 } in
  each_corpus_instance (fun what t inst ->
      check_pending_run ~what
        ~seed:(Par.seed ~base:7L ~index:t.Narada_core.Synth.st_id)
        ~fuel:20_000 n inst.Detect.Racefuzzer.ri_machine);
  Alcotest.(check bool) "accesses predicted" true (n.some > 1000);
  Alcotest.(check bool) "non-accesses predicted" true (n.none > n.some)

(* ---- live threads ---- *)

(* The machine's live list must be, record for record and in order,
   its thread list without the retired threads; and a pick over it must
   choose what the same pick over every thread chooses. *)

let retired th =
  match Machine.status_th th with
  | Machine.Suspended | Machine.Finished _ | Machine.Crashed _ -> true
  | Machine.Runnable | Machine.Blocked_lock _ | Machine.Blocked_join _ -> false

let tids ths =
  String.concat "," (List.map (fun th -> string_of_int (Machine.thread_id th)) ths)

let same_records a b = List.length a = List.length b && List.for_all2 ( == ) a b

let check_live ~what m =
  let steppable = List.filter (fun th -> not (retired th)) (Machine.all_threads m) in
  let live = Machine.live_threads m in
  if not (same_records live steppable) then
    Alcotest.failf "%s: live threads [%s], steppable threads [%s]" what (tids live)
      (tids steppable)

(* Step [m] up to [fuel] times, picking over the live threads with
   [r_live] and, in lockstep, over every thread with [r_all]; checks the
   live list before every step and after the last.  Returns the steps
   taken. *)
let run_lockstep ~what ~r_live ~r_all ~fuel m =
  let runnable th = Machine.runnable_th m th in
  let rec go n =
    check_live ~what m;
    if n >= fuel then n
    else
      let pick rng ths = Conc.Scheduler.pick_where runnable (Rng.below rng) ths in
      let live = pick r_live (Machine.live_threads m) in
      let full = pick r_all (Machine.all_threads m) in
      match (live, full) with
      | None, None -> n
      | Some a, Some b when a == b ->
        ignore (Machine.step_th m a);
        go (n + 1)
      | _ ->
        let show = function None -> "none" | Some th -> tids [ th ] in
        Alcotest.failf "%s: step %d: live pick %s, full pick %s" what n (show live)
          (show full)
  in
  go 0

(* A copy gets records of its own, and running it leaves the original's
   live list as it was. *)
let check_copy ~what ~seed m =
  let c = Machine.copy m in
  List.iter
    (fun th ->
      if List.memq th (Machine.all_threads m) then
        Alcotest.failf "%s: the copy's live thread %d is a record of the original" what
          (Machine.thread_id th))
    (Machine.live_threads c);
  let state th =
    ( Machine.thread_id th,
      Machine.status_th th,
      Option.map (fun f -> f.Machine.pc) (Machine.top_frame_th th) )
  in
  let before = Machine.live_threads m in
  let states = List.map state before in
  ignore
    (run_lockstep ~what:(what ^ " (copy)") ~r_live:(Rng.create seed)
       ~r_all:(Rng.create seed) ~fuel:20_000 c);
  let after = Machine.live_threads m in
  if not (same_records after before && List.map state after = states) then
    Alcotest.failf "%s: running the copy changed the original's live threads [%s] -> [%s]"
      what (tids before) (tids after)

(* A random run checked at every step, with a copy checked before it
   and another [split] steps in. *)
let check_live_run ~what ~seed ~split ~fuel m =
  let r_live = Rng.create seed and r_all = Rng.create seed in
  check_copy ~what ~seed:(Int64.succ seed) m;
  let n = run_lockstep ~what ~r_live ~r_all ~fuel:split m in
  check_copy ~what ~seed:(Int64.succ seed) m;
  n + run_lockstep ~what ~r_live ~r_all ~fuel:(fuel - n) m

(* Main spawns a worker mid-run and joins it, then spawns one thread
   that crashes on a null dereference and one that finishes; a harness
   thread is suspended after its first steps, as seed replays are. *)
let live_fixture =
  {|
class Node { int v; }

class W {
  Node n;
  int spin() { int i = 0; while (i < 4) { i = i + 1; } return i; }
  void deref() { Node x = this.n; x.v = 1; }
}

class Main {
  static int victim() { int i = 0; while (i < 100) { i = i + 1; } return i; }
  static int main() {
    W w = new W();
    int s = w.spin();
    thread t1 = spawn w.spin();
    join t1;
    thread t2 = spawn w.deref();
    thread t3 = spawn w.spin();
    join t3;
    return s;
  }
}
|}

let test_live_fixture () =
  let cu = Jir.Compile.compile_source live_fixture in
  let static name =
    match Jir.Code.find_static cu "Main" name with
    | Some cm -> cm
    | None -> Alcotest.failf "no Main.%s" name
  in
  let steps = ref 0 in
  for seed = 1 to 30 do
    let m = Machine.create ~client_classes:[ "Main" ] cu in
    let victim = Machine.new_thread m ~cm:(static "victim") ~recv:None ~args:[] () in
    ignore (Machine.new_thread m ~cm:(static "main") ~recv:None ~args:[] ());
    for _ = 1 to 3 do ignore (Machine.step m victim) done;
    Machine.suspend m victim;
    let what = Printf.sprintf "fixture seed %d" seed in
    steps :=
      !steps + check_live_run ~what ~seed:(Int64.of_int seed) ~split:25 ~fuel:5_000 m;
    let kind th =
      match Machine.status_th th with
      | Machine.Suspended -> "suspended"
      | Machine.Finished _ -> "finished"
      | Machine.Crashed msg ->
        if String.starts_with ~prefix:"null pointer dereference" msg then "npe" else msg
      | Machine.Runnable | Machine.Blocked_lock _ | Machine.Blocked_join _ -> "live"
    in
    (* victim, main, t1, t2, t3 *)
    Alcotest.(check (list string)) (what ^ ": every thread retired")
      [ "suspended"; "finished"; "finished"; "npe"; "finished" ]
      (List.map kind (Machine.all_threads m))
  done;
  Alcotest.(check bool) "runs stepped" true (!steps > 30 * 25)

let test_live_corpus () =
  let instances = ref 0 in
  each_corpus_instance (fun what t inst ->
      incr instances;
      ignore
        (check_live_run ~what
           ~seed:(Par.seed ~base:7L ~index:t.Narada_core.Synth.st_id)
           ~split:40 ~fuel:20_000 inst.Detect.Racefuzzer.ri_machine));
  Alcotest.(check int) "instances checked" 580 !instances

(* ---- field layouts ---- *)

(* Layouts belong to the compiled program: two machines of each corpus
   unit, each run through its seed test, and a copy of each hold every
   object of a class, and every class object, with one physical layout,
   so a compiled site's field cache filled on one machine hits on all
   of them.  The cells compared and the classes with two or more
   instances on a machine are pinned, so the check cannot go vacuous. *)
let test_layouts_per_program () =
  let cells = ref 0 and shared = ref 0 in
  List.iter
    (fun (e : Corpus.Corpus_def.entry) ->
      let id = e.Corpus.Corpus_def.e_id in
      let cu = Corpus.Registry.compiled_unit e in
      let cls = e.Corpus.Corpus_def.e_seed_cls in
      let seeded () =
        let m = Machine.create ~client_classes:[ cls ] cu in
        (match Jir.Code.find_static cu cls e.Corpus.Corpus_def.e_seed_meth with
        | Some cm -> ignore (Machine.call m ~cm ~recv:None ~args:[] ())
        | None -> Alcotest.failf "%s: no seed method" id);
        m
      in
      let m1 = seeded () and m2 = seeded () in
      let machines =
        [
          ("first", m1);
          ("second", m2);
          ("copy of first", Machine.copy m1);
          ("copy of second", Machine.copy m2);
        ]
      in
      let layouts = Hashtbl.create 16 in
      List.iter
        (fun (what, m) ->
          let h = Machine.heap m in
          let per_class = Hashtbl.create 16 in
          let check key layout =
            incr cells;
            let n = Option.value ~default:0 (Hashtbl.find_opt per_class key) in
            Hashtbl.replace per_class key (n + 1);
            match Hashtbl.find_opt layouts key with
            | None -> Hashtbl.replace layouts key layout
            | Some l ->
              if l != layout then
                Alcotest.failf "%s: an object of %s%s on the %s machine has a layout of its own"
                  id (snd key) (if fst key then "'s statics" else "") what
          in
          for a = 1 to Heap.size h do
            match (Heap.cell h a).Heap.kind with
            | Heap.Kobject { cls; layout; _ } -> check (false, cls) layout
            | Heap.Kclassobj { cls; layout; _ } -> check (true, cls) layout
            | Heap.Karray _ -> ()
          done;
          Hashtbl.iter (fun _ n -> if n >= 2 then incr shared) per_class)
        machines)
    (Corpus.Registry.all @ Corpus.Registry.extras);
  Alcotest.(check (pair int int)) "cells compared, classes with two instances" (308, 56)
    (!cells, !shared)

let () =
  Alcotest.run "machine"
    [
      ( "evaluation",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "short circuit" `Quick test_short_circuit;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "strings" `Quick test_strings;
        ] );
      ( "objects",
        [
          Alcotest.test_case "fields and ctors" `Quick test_objects;
          Alcotest.test_case "dispatch" `Quick test_dispatch;
          Alcotest.test_case "statics" `Quick test_statics;
          Alcotest.test_case "arrays" `Quick test_arrays;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "runtime errors" `Quick test_crashes;
          Alcotest.test_case "npe on field" `Quick test_crash_mentions_npe_method;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "monitors reenter" `Quick test_monitor_reentrancy;
          Alcotest.test_case "spawn/join" `Quick test_spawn_join;
          Alcotest.test_case "lost update exists" `Quick test_lost_update_exists;
          Alcotest.test_case "monitor blocks" `Quick test_blocked_lock;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "crash releases monitors" `Quick
            test_crash_releases_monitors;
        ] );
      ( "loops",
        [
          Alcotest.test_case "for" `Quick test_for_loops;
          Alcotest.test_case "break/continue" `Quick test_break_continue;
          Alcotest.test_case "break frees monitor" `Quick test_break_releases_monitor;
          Alcotest.test_case "continue frees monitor" `Quick
            test_continue_releases_monitor;
          Alcotest.test_case "placement checks" `Quick test_typecheck_loop_placement;
          Alcotest.test_case "for round-trip" `Quick test_for_roundtrip;
        ] );
      ( "harness",
        [
          Alcotest.test_case "rand deterministic" `Quick test_rand_deterministic;
          Alcotest.test_case "print capture" `Quick test_print_output;
          Alcotest.test_case "construct" `Quick test_construct_api;
          Alcotest.test_case "pending on finished thread" `Quick
            test_pending_on_finished_thread;
          Alcotest.test_case "deref_path" `Quick test_deref_path;
          Alcotest.test_case "pending access is exact" `Quick
            test_pending_access_oracle;
        ] );
      ( "live threads",
        [
          Alcotest.test_case "live threads are the steppable ones" `Quick
            test_live_fixture;
          Alcotest.test_case "live threads on every corpus instance" `Quick
            test_live_corpus;
        ] );
      ( "layouts",
        [
          Alcotest.test_case "one layout per class across machines" `Quick
            test_layouts_per_program;
        ] );
    ]

