(* Instantiate once, copy many: a synthesized test's instantiator builds
   its initial state once and hands out a [Machine.copy] of it per call.
   Every copy must be indistinguishable from a fresh [Synth.instantiate]
   — before it runs and under a seeded schedule — and running one copy
   must leave the next one untouched.  The checks are run against
   sabotaged copies too, to show they can fail. *)

open Narada_core
module M = Runtime.Machine
module Rf = Detect.Racefuzzer

let analysis_of (e : Corpus.Corpus_def.entry) =
  match
    Pipeline.analyze (Corpus.Registry.compiled_unit e)
      ~client_classes:[ e.Corpus.Corpus_def.e_seed_cls ]
      ~seed_cls:e.Corpus.Corpus_def.e_seed_cls
      ~seed_meth:e.Corpus.Corpus_def.e_seed_meth
  with
  | Ok an -> an
  | Error msg -> Alcotest.failf "%s: %s" e.Corpus.Corpus_def.e_id msg

let analyses =
  lazy (List.map (fun e -> (e, analysis_of e)) Corpus.Registry.all)

let analysis id =
  match
    List.find_opt
      (fun ((e : Corpus.Corpus_def.entry), _) -> e.Corpus.Corpus_def.e_id = id)
      (Lazy.force analyses)
  with
  | Some (_, an) -> an
  | None -> Alcotest.failf "no corpus class %s" id

let fresh (an : Pipeline.analysis) t =
  Synth.instantiate an.Pipeline.an_cu ~client_classes:an.Pipeline.an_client_classes t

(* Everything observable of an instance before it runs. *)
let initial (inst : Rf.instance) =
  let m = inst.Rf.ri_machine in
  ( Runtime.Snapshot.canonical (M.heap m) ~roots:inst.Rf.ri_roots,
    M.labels_used m,
    List.map
      (fun tid ->
        ( tid,
          M.status m tid,
          List.map
            (fun (f : M.frame) -> (f.M.pc, Array.to_list f.M.regs, f.M.entered))
            (M.frames_of m tid),
          M.held_locks m tid ))
      (M.threads m),
    M.output m,
    inst.Rf.ri_threads )

(* What one seeded random schedule does with it, FastTrack attached. *)
let run ~seed (inst : Rf.instance) =
  let m = inst.Rf.ri_machine in
  let ft = Detect.Fasttrack.attach m in
  let r = Conc.Exec.run m (Conc.Scheduler.random ~seed) in
  ( r,
    M.output m,
    List.sort Detect.Race.compare_key
      (List.map Detect.Race.key_of (Detect.Fasttrack.reports ft)) )

(* [None] when the first two instances of [instantiate] both match a
   fresh build — copy 2 taken after copy 1 ran to completion — else
   what differed. *)
let mismatch ~instantiate an (t : Synth.test) =
  let seed = Par.seed ~base:11L ~index:t.Synth.st_id in
  match (fresh an t, instantiate ()) with
  | Error e, Error e' when String.equal e e' -> None
  | Error _, Error _ -> Some "errors differ"
  | Error _, Ok _ | Ok _, Error _ -> Some "only one side instantiates"
  | Ok f, Ok c1 -> (
    let f0 = initial f in
    let rf = run ~seed f in
    if initial c1 <> f0 then Some "copy 1: initial state"
    else if run ~seed c1 <> rf then Some "copy 1: seeded run"
    else
      match instantiate () with
      | Error _ -> Some "copy 2 does not instantiate"
      | Ok c2 ->
        if initial c2 <> f0 then Some "copy 2: initial state"
        else if run ~seed c2 <> rf then Some "copy 2: seeded run"
        else None)

let failures ~instantiate an =
  List.filter_map
    (fun (t : Synth.test) ->
      Option.map
        (Printf.sprintf "test #%d: %s" t.Synth.st_id)
        (mismatch ~instantiate:(instantiate t) an t))
    an.Pipeline.an_tests

let test_fidelity id () =
  let an = analysis id in
  Alcotest.(check bool) "has tests" true (an.Pipeline.an_tests <> []);
  Alcotest.(check (list string))
    "every copy equals a fresh build" []
    (failures ~instantiate:(Pipeline.instantiator an) an)

(* An instantiator over a fresh template with a caller-chosen copy. *)
let with_copy copy an t =
  let template = lazy (fresh an t) in
  fun () ->
    Result.map
      (fun (i : Rf.instance) -> { i with Rf.ri_machine = copy i.Rf.ri_machine })
      (Lazy.force template)

(* Step the newest thread (a racy one) once. *)
let step_newest m =
  match List.rev (M.threads m) with
  | tid :: _ -> ignore (M.step m tid)
  | [] -> ()

let sabotages =
  [
    ("identity", fun () -> Fun.id);
    ( "one copy for every call",
      fun () ->
        let made = ref None in
        fun m ->
          match !made with
          | Some c -> c
          | None ->
            let c = M.copy m in
            made := Some c;
            c );
    ( "copy one step ahead",
      fun () m ->
        let c = M.copy m in
        step_newest c;
        c );
  ]

let test_sabotage () =
  List.iter
    (fun id ->
      let an = analysis id in
      let instantiable =
        List.filter (fun t -> Result.is_ok (fresh an t)) an.Pipeline.an_tests
      in
      Alcotest.(check (list string))
        (id ^ ": the harness accepts the real copy")
        []
        (failures ~instantiate:(fun t -> with_copy M.copy an t) an);
      List.iter
        (fun (name, sabotage) ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s rejected on every test" id name)
            (List.length instantiable)
            (List.length
               (failures ~instantiate:(fun t -> with_copy (sabotage ()) an t) an)))
        sabotages)
    [ "C1"; "C3"; "C9" ]

(* Cells of a copy share their layouts with the original but no field
   array, element array or monitor. *)
let test_layout_sharing () =
  let an = analysis "C1" in
  let checked = ref 0 in
  List.iter
    (fun t ->
      match fresh an t with
      | Error _ -> ()
      | Ok f ->
        let h = M.heap f.Rf.ri_machine in
        let h' = M.heap (M.copy f.Rf.ri_machine) in
        Alcotest.(check int) "same size" (Runtime.Heap.size h) (Runtime.Heap.size h');
        for a = 1 to Runtime.Heap.size h do
          let c = Runtime.Heap.cell h a and c' = Runtime.Heap.cell h' a in
          Alcotest.(check bool) "monitor not shared" true
            (c.Runtime.Heap.monitor != c'.Runtime.Heap.monitor);
          let distinct x y = Array.length x = 0 || x != y in
          let fields layout fields layout' fields' =
            incr checked;
            Alcotest.(check bool) "layout shared" true (layout == layout');
            Alcotest.(check bool) "fields not shared" true (distinct fields fields')
          in
          match (c.Runtime.Heap.kind, c'.Runtime.Heap.kind) with
          | Runtime.Heap.Kobject o, Runtime.Heap.Kobject o' ->
            fields o.layout o.fields o'.layout o'.fields
          | Runtime.Heap.Kclassobj o, Runtime.Heap.Kclassobj o' ->
            fields o.layout o.fields o'.layout o'.fields
          | Runtime.Heap.Karray r, Runtime.Heap.Karray r' ->
            Alcotest.(check bool) "data not shared" true (distinct r.data r'.data)
          | (Runtime.Heap.Kobject _ | Runtime.Heap.Kclassobj _ | Runtime.Heap.Karray _), _
            ->
            Alcotest.failf "cell @%d changed kind" a
        done)
    an.Pipeline.an_tests;
  Alcotest.(check bool) "objects checked" true (!checked > 0)

(* A machine stopped mid-run, inside a monitor, part-way through
   printing random draws: a copy run to completion leaves the original
   exactly as it was, and the original, a later copy and the first copy
   all finish identically. *)
let test_copy_mid_run () =
  let cu =
    Jir.Compile.compile_source
      {|
class Box { int v; int[] hist; }
class Main {
  static int main() {
    Box b = new Box();
    b.hist = new int[4];
    int i = 0;
    synchronized (b) {
      while (i < 4) {
        int r = Sys.randInt(100);
        b.hist[i] = r;
        b.v = b.v + r;
        Sys.print(r);
        i = i + 1;
      }
    }
    return b.v;
  }
}
|}
  in
  let m = M.create ~client_classes:[ "Main" ] ~seed:5L cu in
  let cm =
    match Jir.Code.find_static cu "Main" "main" with
    | Some cm -> cm
    | None -> Alcotest.fail "no Main.main"
  in
  let tid = M.new_thread m ~cm ~recv:None ~args:[] () in
  while M.output m = "" do
    ignore (M.step m tid)
  done;
  let state m =
    let frames = M.frames_of m tid in
    ( M.output m,
      M.labels_used m,
      M.status m tid,
      M.held_locks m tid,
      List.map (fun (f : M.frame) -> (f.M.pc, Array.to_list f.M.regs, f.M.entered)) frames,
      Runtime.Snapshot.canonical (M.heap m)
        ~roots:(List.concat_map (fun (f : M.frame) -> Array.to_list f.M.regs) frames) )
  in
  let before = state m in
  Alcotest.(check bool) "stopped inside the monitor" true (M.held_locks m tid <> []);
  let finish m =
    let r = M.run_thread_to_completion m tid ~fuel:10_000 in
    (r, M.output m, M.labels_used m)
  in
  let c1 = M.copy m in
  let r1 = finish c1 in
  Alcotest.(check bool) "original untouched by the copy's run" true (state m = before);
  let c2 = M.copy m in
  Alcotest.(check bool) "later copy starts where the original is" true (state c2 = before);
  Alcotest.(check bool) "later copy finishes the same" true (finish c2 = r1);
  Alcotest.(check bool) "original finishes the same" true (finish m = r1);
  match r1 with
  | Ok (Some (Runtime.Value.Vint _)), out, _ ->
    Alcotest.(check int) "four draws printed" 4
      (List.length (String.split_on_char '\n' (String.trim out)))
  | _ -> Alcotest.fail "copy did not finish"

(* Each thread's [Sys.randInt] stream is a mutable generator, so a
   copy must get its own: draws on the copy must not move the
   original's stream, nor the original's the copy's.  Both are stopped
   after the first draw, then run to completion one after the other;
   each must print what an uncopied machine prints. *)
let test_copy_rand_streams () =
  let cu =
    Jir.Compile.compile_source
      {|
class Main {
  static int main() {
    int i = 0;
    while (i < 6) {
      Sys.print(Sys.randInt(1000000));
      i = i + 1;
    }
    return i;
  }
}
|}
  in
  let cm =
    match Jir.Code.find_static cu "Main" "main" with
    | Some cm -> cm
    | None -> Alcotest.fail "no Main.main"
  in
  let started () =
    let m = M.create ~client_classes:[ "Main" ] ~seed:9L cu in
    let tid = M.new_thread m ~cm ~recv:None ~args:[] () in
    while M.output m = "" do
      ignore (M.step m tid)
    done;
    (m, tid)
  in
  let finish (m, tid) =
    (match M.run_thread_to_completion m tid ~fuel:10_000 with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    M.output m
  in
  let reference = finish (started ()) in
  Alcotest.(check int) "six draws" 6
    (List.length (String.split_on_char '\n' (String.trim reference)));
  let m, tid = started () in
  let c = M.copy m in
  Alcotest.(check string) "copy run first" reference (finish (c, tid));
  Alcotest.(check string) "original after the copy" reference (finish (m, tid));
  let m, tid = started () in
  let c = M.copy m in
  Alcotest.(check string) "original run first" reference (finish (m, tid));
  Alcotest.(check string) "copy after the original" reference (finish (c, tid))

let templates () =
  Option.value ~default:0.0
    (List.assoc_opt "synth/templates" (Obs.Metrics.gauges (Obs.Metrics.global ())))

(* The first calls of one instantiator race on four domains (16 calls
   at width 4 make one-call chunks): the template is built exactly
   once, and every call gets its own machine in the same state. *)
let test_concurrent_first_calls () =
  let an = analysis "C1" in
  let t =
    match List.find_opt (fun t -> Result.is_ok (fresh an t)) an.Pipeline.an_tests with
    | Some t -> t
    | None -> Alcotest.fail "C1 has no instantiable test"
  in
  let prev = Par.max_domains () in
  Par.set_max_domains 4;
  let insts =
    Fun.protect
      ~finally:(fun () -> Par.set_max_domains prev)
      (fun () ->
        let instantiate = Pipeline.instantiator an t in
        let before = templates () in
        let insts =
          Par.map ~jobs:4 (List.init 16 Fun.id) (fun _ -> instantiate ())
        in
        Alcotest.(check (float 0.0)) "template built once" 1.0 (templates () -. before);
        insts)
  in
  let expected =
    match fresh an t with Ok f -> initial f | Error e -> Alcotest.fail e
  in
  let machines =
    List.map
      (function
        | Ok inst ->
          Alcotest.(check bool) "equals a fresh build" true (initial inst = expected);
          inst.Rf.ri_machine
        | Error e -> Alcotest.fail e)
      insts
  in
  List.iteri
    (fun i m ->
      List.iteri
        (fun j m' ->
          if i < j then Alcotest.(check bool) "physically distinct" true (m != m'))
        machines)
    machines

(* C3 has a test that synthesis cannot instantiate; its instantiator
   memoizes the error and returns it on every call. *)
let test_error_memoized () =
  let an = analysis "C3" in
  let expected = "no context recipe for endpoint A" in
  match
    List.find_opt
      (fun t -> fresh an t = Error expected)
      an.Pipeline.an_tests
  with
  | None -> Alcotest.failf "C3 has no test failing with %S" expected
  | Some t ->
    let instantiate = Pipeline.instantiator an t in
    for _ = 1 to 3 do
      match instantiate () with
      | Error e -> Alcotest.(check string) "same error" expected e
      | Ok _ -> Alcotest.fail "uninstantiable test instantiated"
    done

let () =
  Alcotest.run "instance"
    [
      ( "fidelity",
        List.map
          (fun (e : Corpus.Corpus_def.entry) ->
            Alcotest.test_case
              (e.Corpus.Corpus_def.e_id ^ " copies equal fresh builds")
              `Quick (test_fidelity e.Corpus.Corpus_def.e_id))
          Corpus.Registry.all );
      ( "copy",
        [
          Alcotest.test_case "sabotaged copies rejected" `Quick test_sabotage;
          Alcotest.test_case "layouts shared, contents not" `Quick test_layout_sharing;
          Alcotest.test_case "mid-run copy isolated" `Quick test_copy_mid_run;
          Alcotest.test_case "randInt streams isolated" `Quick test_copy_rand_streams;
        ] );
      ( "instantiator",
        [
          Alcotest.test_case "concurrent first calls" `Quick test_concurrent_first_calls;
          Alcotest.test_case "error memoized" `Quick test_error_memoized;
        ] );
    ]
