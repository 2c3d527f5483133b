(* The shared RNG: its stream is pinned draw for draw, copies are
   independent, and bounded draws allocate nothing.

   Every schedule, every directed run and every [Sys.randInt] value in
   the system comes from this stream, so the golden draws below (taken
   before the generator's state moved into an unboxed buffer) pin all
   of them at once: any change to the stream shows up here first. *)

let seeds = [ 0L; 7L; 42L; -1L; Int64.min_int ]
let bounds = [ 1; 2; 3; 7; 1000; (1 lsl 40) + 1; max_int ]

(* Per seed, from one generator in this order: three [bits], two
   [below] per bound in [bounds] order, three [pick]s from a..e, two
   [range (-3) 3] and two [range 10 1000]. *)
let golden =
  [
    ( 0L,
      [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L ],
      [ 0; 0; 0; 1; 2; 2; 5; 5; 726; 683; 367616887226; 94490787594;
        340936117104509101; 4407197043975656022 ],
      [ "c"; "c"; "e" ],
      [ 3; -3; 468; 284 ] );
    ( 7L,
      [ 7191089600892374487L; 309689372594955804L; -1830642326893942270L ],
      [ 0; 0; 1; 0; 0; 2; 0; 6; 516; 990; 157338981527; 193449813579;
        890745616000058874; 2390950708587517618 ],
      [ "b"; "c"; "a" ],
      [ 0; 0; 139; 691 ] );
    ( 42L,
      [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ],
      [ 0; 0; 0; 1; 2; 1; 5; 5; 646; 398; 495119257120; 120296654585;
        3752715396868486130; 1910607418205583989 ],
      [ "b"; "c"; "d" ],
      [ 2; 1; 225; 299 ] );
    ( -1L,
      [ -1956407806741107680L; -1612297016619662647L; 4048727598324417001L ],
      [ 0; 0; 1; 1; 2; 0; 3; 4; 527; 875; 66280393641; 1068140538804;
        3237702463888700650; 2920446500714963560 ],
      [ "c"; "b"; "b" ],
      [ 0; 0; 420; 301 ] );
    ( Int64.min_int,
      [ 5196802822362493915L; -4292029157624213486L; 7036458801432265024L ],
      [ 0; 0; 1; 1; 1; 0; 5; 1; 222; 597; 310006868228; 945200944975;
        980739244037817998; 3299048061353309019 ],
      [ "a"; "a"; "b" ],
      [ 2; 0; 222; 163 ] );
  ]

let draws seed =
  let t = Rng.create seed in
  let bits = List.init 3 (fun _ -> Rng.bits t) in
  let below =
    List.concat_map (fun b -> List.init 2 (fun _ -> Rng.below t b)) bounds
  in
  let pick = List.init 3 (fun _ -> Rng.pick t [ "a"; "b"; "c"; "d"; "e" ]) in
  let range =
    List.init 2 (fun _ -> Rng.range t (-3) 3)
    @ List.init 2 (fun _ -> Rng.range t 10 1000)
  in
  (bits, below, pick, range)

let test_golden () =
  Alcotest.(check (list int64)) "seeds covered" seeds
    (List.map (fun (s, _, _, _, _) -> s) golden);
  List.iter
    (fun (seed, bits, below, pick, range) ->
      let bits', below', pick', range' = draws seed in
      let what = Printf.sprintf "seed %Ld: " seed in
      Alcotest.(check (list int64)) (what ^ "bits") bits bits';
      Alcotest.(check (list int)) (what ^ "below") below below';
      Alcotest.(check (list string)) (what ^ "pick") pick pick';
      Alcotest.(check (list int)) (what ^ "range") range range')
    golden

let test_bounds () =
  let t = Rng.create 3L in
  List.iter
    (fun b ->
      for _ = 1 to 200 do
        let v = Rng.below t b in
        if v < 0 || v >= b then Alcotest.failf "below %d drew %d" b v
      done)
    bounds;
  List.iter
    (fun b ->
      match Rng.below t b with
      | v -> Alcotest.failf "below %d drew %d" b v
      | exception Invalid_argument _ -> ())
    [ 0; -1; min_int ];
  (match Rng.pick t ([] : int list) with
  | _ -> Alcotest.fail "pick from the empty list"
  | exception Invalid_argument _ -> ());
  match Rng.range t 1 0 with
  | v -> Alcotest.failf "empty range drew %d" v
  | exception Invalid_argument _ -> ()

(* A copy continues the stream from where the original is, and draws on
   either leave the other where it was. *)
let test_copy () =
  let next t = List.init 8 (fun _ -> Rng.below t 1000) in
  let t = Rng.create 42L in
  ignore (next t);
  let c = Rng.copy t in
  let from_c = next c in
  let from_t = next t in
  Alcotest.(check (list int)) "copy continues the original's stream" from_t from_c;
  let c2 = Rng.copy t in
  ignore (next t);
  ignore (next t);
  (* [c2] is 16 draws into seed 42's stream. *)
  let reference = Rng.create 42L in
  ignore (next reference);
  ignore (next reference);
  Alcotest.(check (list int)) "original's draws do not move the copy"
    (next reference) (next c2);
  let c3 = Rng.copy t in
  let from_c3 = Rng.bits c3 in
  Alcotest.(check int64) "bits too" from_c3 (Rng.bits t)

(* [Rng.below] as it was before power-of-two bounds skipped the
   divisions: every bound goes through the rejection threshold and the
   unsigned remainder.  Kept verbatim (bar [bits], taken from [Rng]) as
   the reference the fast path must agree with. *)
module Reference = struct
  let bits = Rng.bits

  let[@inline] unsigned_lt (a : int64) (b : int64) =
    Int64.sub a Int64.min_int < Int64.sub b Int64.min_int

  let[@inline] unsigned_rem n d =
    let open Int64 in
    let q = shift_left (div (shift_right_logical n 1) d) 1 in
    let r = sub n (mul q d) in
    if unsigned_lt r d then r else sub r d

  let below t bound =
    if bound <= 0 then
      invalid_arg (Printf.sprintf "Rng.below: non-positive bound %d" bound);
    let n = Int64.of_int bound in
    let threshold = unsigned_rem (Int64.neg n) n in
    let z = ref (bits t) in
    while unsigned_lt !z threshold do
      z := bits t
    done;
    Int64.to_int (unsigned_rem !z n)
end

(* 1,000,000 draws per bound from two generators at one seed, one drawn
   by [Rng.below] and one by the reference: every value must agree, and
   so must the stream after the last draw (a path that drew once more
   or once less would shift it).  Power-of-two bounds take the fast
   path, the rest the general one; the mixed run alternates them. *)
let draws_per_bound = 1_000_000

let check_below_matches what ~seed bound_of =
  let t = Rng.create seed and r = Rng.create seed in
  for i = 0 to draws_per_bound - 1 do
    let b = bound_of i in
    let got = Rng.below t b and want = Reference.below r b in
    if got <> want then
      Alcotest.failf "%s: draw %d below %d is %d, reference %d" what i b got want
  done;
  Alcotest.(check int64) (what ^ ": stream afterwards") (Rng.bits r) (Rng.bits t)

let test_below_reference () =
  List.iteri
    (fun i b -> check_below_matches (Printf.sprintf "below %d" b) ~seed:(Int64.of_int i) (fun _ -> b))
    [ 1; 2; 4; 1024; 1 lsl 32; 1 lsl 61 ];
  let mixed = [| 3; 1; 5; 2; 1000; 1 lsl 61; max_int; 4 |] in
  check_below_matches "mixed" ~seed:42L (fun i -> mixed.(i land 7))

(* Bounded draws are on the schedulers' per-step path.  Allocation is
   only meaningful in native code: bytecode boxes every [int64]. *)
let test_no_allocation () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()
  | Sys.Native ->
    let t = Rng.create 7L in
    let acc = ref 0 in
    let before = Gc.minor_words () in
    for i = 1 to 10_000 do
      acc := !acc lxor Rng.below t ((i land 1023) + 1)
    done;
    let after = Gc.minor_words () in
    Alcotest.(check (float 0.0)) "10,000 draws, 0 minor words" 0.0 (after -. before);
    (* Power-of-two bounds only: the path without the divisions. *)
    let before = Gc.minor_words () in
    for i = 1 to 10_000 do
      acc := !acc lxor Rng.below t (1 lsl (i mod 62))
    done;
    let after = Gc.minor_words () in
    Alcotest.(check (float 0.0)) "10,000 power-of-two draws, 0 minor words" 0.0
      (after -. before);
    Alcotest.(check bool) "draws used" true (!acc >= 0)

(* The RNG's consumers on the campaign path: the directed scheduler, the
   executor continuing a run from its RNG, and the executor under the
   random scheduler, bare and observed by a lockset detector (the
   campaign's lockset pass), on one fixture.  Two threads loop over a
   synchronized increment of [count], the candidate field, so the
   directed run postpones a thread at nearly every iteration and, with
   the other one blocked on the lock, releases it again; no run ends
   within its fuel.  The directed run goes three ways: field-only (it
   decodes every access a thread is poised at), narrowed to the two
   sites of [count] (it decodes only there), and narrowed to a site no
   thread reaches (it decodes nothing and follows [Exec.run]'s
   schedule).  The bounds are the words per step they make (5.38, 4.69,
   2.77; then 2.76, 2.82 and 5.70 for the executor runs) plus about
   half a word: a closure or a [Some] cell allocated on every step
   breaks them.  So the unreached run allocates what plain stepping
   does; the narrowed one adds only its postponements, two per loop
   iteration of about fifteen steps at 15 words each (the pending
   access, its site and option, the table's bucket).  The loop that rescanned and
   memoized every thread's pending access made 7.38 field-only.  The
   lockset-observed run adds only the access and lock events it reads
   (about 2.9 words per step) and keeps no record of a repeated
   access; it made 19.22 while the machine built every event for any
   observer and the detector kept every access. *)
let alloc_src =
  "class C { int count; int other; void work() { int i = 0; \
   while (i < 1000000) { synchronized (this) { this.count = this.count + 1; } \
   this.other = i; i = i + 1; } } }"

let alloc_instance () =
  let cu = Jir.Compile.compile_source alloc_src in
  let m = Runtime.Machine.create ~client_classes:[ "C" ] cu in
  match (Runtime.Machine.construct m ~cls:"C" ~args:[] (), Jir.Code.find_virtual cu "C" "work") with
  | Ok recv, Some cm ->
    let spawn () = Runtime.Machine.new_thread m ~cm ~recv:(Some recv) ~args:[] () in
    let t1 = spawn () in
    let t2 = spawn () in
    { Detect.Racefuzzer.ri_machine = m; ri_threads = [ t1; t2 ]; ri_roots = [ recv ] }
  | Error e, _ -> Alcotest.fail e
  | Ok _, None -> Alcotest.fail "no C.work"

(* The sites of the fixture's two accesses of [count] (read and write),
   as a lockset report would narrow a candidate to them, and a site no
   thread reaches. *)
let count_sites () =
  let cu = Jir.Compile.compile_source alloc_src in
  match Jir.Code.find_virtual cu "C" "work" with
  | None -> Alcotest.fail "no C.work"
  | Some cm ->
    let site pc = { Runtime.Event.s_meth = cm.Jir.Code.cm_qname; s_pc = pc } in
    let pcs = ref [] in
    Array.iteri
      (fun pc -> function
        | Jir.Code.Iget (_, _, "count") | Jir.Code.Iset (_, "count", _) -> pcs := pc :: !pcs
        | _ -> ())
      cm.Jir.Code.cm_code;
    (match List.rev !pcs with
    | [ r; w ] -> (site r, site w)
    | _ -> Alcotest.fail "C.work: expected one read and one write of count")

let nowhere = { Runtime.Event.s_meth = "C.nowhere"; s_pc = 0 }

let words_per_step ~steps f =
  let before = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. before) /. float_of_int steps

let test_scheduler_allocation () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()
  | Sys.Native ->
    let fuel = 20_000 in
    let directed_words what c_sites =
      let cand = { Detect.Racefuzzer.c_field = "count"; c_sites } in
      let inst = alloc_instance () in
      let run = ref None in
      let words =
        words_per_step ~steps:fuel (fun () ->
            run := Some (Detect.Racefuzzer.directed_run inst ~cand ~seed:7L ~fuel))
      in
      (match !run with
      | Some (re, st) ->
        Alcotest.(check int) (what ^ " uses all its fuel") fuel st.Detect.Racefuzzer.rs_steps;
        Alcotest.(check bool) (what ^ " confirms nothing") true
          (re.Detect.Racefuzzer.re_report = None);
        Alcotest.(check bool) (what ^ " postpones")
          (c_sites = None || fst (Option.get c_sites) <> nowhere)
          (st.Detect.Racefuzzer.rs_max_postponed > 0)
      | None -> Alcotest.fail ("no " ^ what));
      words
    in
    let directed = directed_words "directed run" None in
    let narrowed = directed_words "narrowed directed run" (Some (count_sites ())) in
    let unreached = directed_words "unreached directed run" (Some (nowhere, nowhere)) in
    let m = (alloc_instance ()).Detect.Racefuzzer.ri_machine in
    let continued =
      words_per_step ~steps:fuel (fun () ->
          ignore (Conc.Exec.run ~fuel m (Conc.Scheduler.of_rng (Rng.create 7L))))
    in
    Alcotest.(check int) "continued run uses all its fuel" 2
      (List.length (Runtime.Machine.live_tids m));
    (* [Exec.run] spends fuel on a pick that finds its thread blocked
       too, so count its words per step taken. *)
    let per_step_taken ?(observe = ignore) () =
      let m = (alloc_instance ()).Detect.Racefuzzer.ri_machine in
      observe m;
      let before = Gc.minor_words () in
      let r = Conc.Exec.run ~fuel m (Conc.Scheduler.random ~seed:7L) in
      let words = (Gc.minor_words () -. before) /. float_of_int r.Conc.Exec.steps in
      Alcotest.(check bool) "Exec.run uses all its fuel" true
        (r.Conc.Exec.outcome = Conc.Exec.Fuel_exhausted);
      words
    in
    let executed = per_step_taken () in
    let observed = per_step_taken ~observe:(fun m -> ignore (Detect.Lockset.attach m)) () in
    let at_most what bound v =
      if v > bound then Alcotest.failf "%s: %.3f words/step, bound %.2f" what v bound
    in
    at_most "directed_run" 5.9 directed;
    at_most "narrowed directed_run" 5.2 narrowed;
    at_most "unreached directed_run" 3.3 unreached;
    at_most "continued Exec.run" 3.3 continued;
    at_most "Exec.run" 3.3 executed;
    at_most "lockset-observed Exec.run" 6.2 observed

(* The seed replay that builds every synthesized test's template
   ([Interp.run_until_call]), to a target no instruction names, on a
   seed that calls two methods per loop iteration and never ends within
   its fuel, so the loop filters out every step.  Plain stepping
   ([Machine.step_th]) of the seed makes 4.67 words per step, all of
   them the callee frames, and the replay 4.68: the loop itself
   allocates nothing on a step that is not a call of the target's
   name.  The loop that resolved every call and checked the caller on
   every step made 19.34 here, and added 12.7-14.0 words per step over
   plain stepping on the corpus seeds; a first decode-first version
   that still allocated the top frame's [Some] added 2.1-3.0.  The
   bounds are the measured 4.68 and 0.01 plus half a word. *)
let replay_src =
  "class C { int count; void bump() { this.count = this.count + 1; } \
   int get() { return this.count; } } \
   class Seed { static void main() { C c = new C(); int i = 0; \
   while (i < 1000000000) { c.bump(); i = i + c.get(); } } }"

let test_replay_allocation () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()
  | Sys.Native ->
    let fuel = 20_000 in
    let cu = Jir.Compile.compile_source replay_src in
    let fresh () = Runtime.Machine.create ~client_classes:[ "Seed" ] cu in
    let m = fresh () in
    let cap = ref None in
    let replay =
      words_per_step ~steps:fuel (fun () ->
          cap :=
            Runtime.Interp.run_until_call ~fuel m ~cls:"Seed" ~meth:"main"
              ~target_qname:"C.absent" ~nth:0)
    in
    Alcotest.(check bool) "no capture" true (!cap = None);
    Alcotest.(check int) "the replay uses all its fuel" 1 (List.length (Runtime.Machine.live_tids m));
    let m = fresh () in
    let th =
      match Jir.Code.find_static cu "Seed" "main" with
      | Some cm ->
        Runtime.Machine.find_thread m
          (Runtime.Machine.new_thread m ~cm ~recv:None ~args:[] ())
      | None -> Alcotest.fail "no Seed.main"
    in
    let stepped =
      words_per_step ~steps:fuel (fun () ->
          for _ = 1 to fuel do
            ignore (Runtime.Machine.step_th m th)
          done)
    in
    let at_most what bound v =
      if v > bound then Alcotest.failf "%s: %.3f words/step, bound %.2f" what v bound
    in
    at_most "run_until_call" 5.18 replay;
    at_most "run_until_call over step_th" 0.51 (replay -. stepped)

(* [Machine.copy] of every instantiable synthesized test of C1-C9 and
   X1-X3, the copy the directed runs and the staged instantiator fork
   their runs from: the minor words it allocates per copy.  It measured
   966.4 while the copy duplicated the class-object and client-class
   tables and sized its cell array like the original's (256 slots at
   least), and 586.7 with the tables shared and the array sized to the
   cells in use; the bound is that plus about 5%. *)
let test_copy_allocation () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()
  | Sys.Native ->
    let copies = ref 0 and total = ref 0.0 in
    List.iter
      (fun (e : Corpus.Corpus_def.entry) ->
        match Eval.Evaluate.analyze_entry e with
        | Error msg -> Alcotest.failf "%s: %s" e.Corpus.Corpus_def.e_id msg
        | Ok (_, an) ->
          List.iter
            (fun t ->
              match Narada_core.Pipeline.instantiator an t () with
              | Error _ -> ()
              | Ok inst ->
                let m = inst.Detect.Racefuzzer.ri_machine in
                let before = Gc.minor_words () in
                ignore (Sys.opaque_identity (Runtime.Machine.copy m));
                total := !total +. (Gc.minor_words () -. before);
                incr copies)
            an.Narada_core.Pipeline.an_tests)
      (Corpus.Registry.all @ Corpus.Registry.extras);
    Alcotest.(check int) "templates copied" 580 !copies;
    let per_copy = !total /. float_of_int !copies in
    if per_copy > 616.0 then
      Alcotest.failf "Machine.copy: %.1f words per copy, bound 616" per_copy

let () =
  Alcotest.run "rng"
    [
      ( "stream",
        [
          Alcotest.test_case "golden draws" `Quick test_golden;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "copy independent" `Quick test_copy;
          Alcotest.test_case "below = reference" `Quick test_below_reference;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "below allocates nothing" `Quick test_no_allocation;
          Alcotest.test_case "directed scheduler words/step" `Quick
            test_scheduler_allocation;
          Alcotest.test_case "seed replay words/step" `Quick test_replay_allocation;
          Alcotest.test_case "machine copy words" `Quick test_copy_allocation;
        ] );
    ]
