(* Lockset (Eraser) and FastTrack detector tests, on programs with known
   race status, plus cross-checks between the two detectors. *)

open Detect

let run_with_detectors ?(seed = 5L) src =
  let cu = Jir.Compile.compile_source src in
  let m = Runtime.Machine.create ~client_classes:[ "Main" ] cu in
  let lockset = Lockset.attach m in
  let eraser = Eraser.attach m in
  let ft = Fasttrack.attach m in
  let cm =
    match Jir.Code.find_static cu "Main" "main" with
    | Some cm -> cm
    | None -> Alcotest.fail "no main"
  in
  ignore (Runtime.Machine.new_thread m ~cm ~recv:None ~args:[] ());
  let r = Conc.Exec.run m (Conc.Scheduler.random ~seed) in
  Alcotest.(check bool) "finished" true (r.Conc.Exec.outcome = Conc.Exec.All_finished);
  (lockset, eraser, ft)

let count_on_field rs field =
  List.length
    (List.filter (fun (r : Race.report) -> r.Race.r_first.Race.a_field = field) rs)

let test_racy_counter_flagged () =
  let ls, er, ft = run_with_detectors Testlib.Fixtures.racy_counter in
  Alcotest.(check bool) "eraser reports count" true
    (count_on_field (Eraser.reports er) "count" > 0);
  Alcotest.(check bool) "candidates report count" true
    (count_on_field (Lockset.candidates ls) "count" > 0);
  (* FastTrack is schedule-sensitive; the candidate set is what feeds
     the directed scheduler, so only require no *spurious* fields. *)
  List.iter
    (fun (r : Race.report) ->
      Alcotest.(check string) "only count races" "count" r.Race.r_first.Race.a_field)
    (Fasttrack.reports ft)

let test_safe_counter_clean () =
  let ls, er, ft = run_with_detectors Testlib.Fixtures.safe_counter in
  Alcotest.(check int) "eraser clean" 0 (List.length (Eraser.reports er));
  Alcotest.(check int) "candidates clean" 0 (List.length (Lockset.candidates ls));
  Alcotest.(check int) "fasttrack clean" 0 (List.length (Fasttrack.reports ft))

(* join imposes happens-before: main reading after join is not a race *)
let test_join_edge () =
  let src =
    "class A { int v; void w() { this.v = 1; } } class Main { static int \
     main() { A a = new A(); thread t = spawn a.w(); join t; return a.v; } }"
  in
  let ls, _, ft = run_with_detectors src in
  Alcotest.(check int) "fasttrack sees the join edge" 0
    (List.length (Fasttrack.reports ft));
  (* the pure lockset view has no notion of join: this is its classic
     false positive *)
  Alcotest.(check bool) "lockset flags it anyway" true
    (List.length (Lockset.candidates ls) > 0)

(* release/acquire ordering: a flag handoff under one lock is HB-ordered *)
let test_lock_edge () =
  let src =
    "class A { int v; bool done; synchronized void w() { this.v = 1; \
     this.done = true; } synchronized int r() { if (this.done) { return \
     this.v; } return 0; } } class Main { static int main() { A a = new \
     A(); thread t1 = spawn a.w(); thread t2 = spawn a.r(); join t1; join \
     t2; return 0; } }"
  in
  let ls, _, ft = run_with_detectors src in
  Alcotest.(check int) "fasttrack clean under lock" 0
    (List.length (Fasttrack.reports ft));
  Alcotest.(check int) "lockset clean under lock" 0
    (List.length (Lockset.candidates ls))

(* distinct locks protecting the same data: both detectors must fire *)
let test_different_locks () =
  let src =
    "class Shared { int v; } class W { Shared s; W(Shared s) { this.s = s; } \
     synchronized void bump() { this.s.v = this.s.v + 1; } } class Main { \
     static int main() { Shared s = new Shared(); W w1 = new W(s); W w2 = \
     new W(s); thread t1 = spawn w1.bump(); thread t2 = spawn w2.bump(); \
     join t1; join t2; return s.v; } }"
  in
  let ls, _, _ft = run_with_detectors src in
  Alcotest.(check bool) "candidates on v" true
    (count_on_field (Lockset.candidates ls) "v" > 0)

let test_array_element_granularity () =
  (* disjoint indices are not a race *)
  let src =
    "class A { int[] xs; A() { this.xs = new int[4]; } void w0() { this.xs[0] \
     = 1; } void w1() { this.xs[1] = 2; } } class Main { static int main() { \
     A a = new A(); thread t1 = spawn a.w0(); thread t2 = spawn a.w1(); join \
     t1; join t2; return 0; } }"
  in
  let ls, _, ft = run_with_detectors src in
  (* The initializing write to the [xs] field itself is a lockset
     candidate (lockset ignores the spawn edge — its classic false
     positive); the array *slots* must be clean. *)
  Alcotest.(check int) "disjoint slots: no [] candidates" 0
    (count_on_field (Lockset.candidates ls) "[]");
  Alcotest.(check int) "disjoint slots: fasttrack clean" 0
    (List.length (Fasttrack.reports ft))

let test_same_element_races () =
  let src =
    "class A { int[] xs; A() { this.xs = new int[4]; } void w() { this.xs[2] \
     = this.xs[2] + 1; } } class Main { static int main() { A a = new A(); \
     thread t1 = spawn a.w(); thread t2 = spawn a.w(); join t1; join t2; \
     return 0; } }"
  in
  let ls, _, _ft = run_with_detectors src in
  Alcotest.(check bool) "same slot: candidates" true
    (List.length (Lockset.candidates ls) > 0)

let test_eraser_state_machine () =
  (* Exclusive-to-one-thread data never races even unlocked. *)
  let src =
    "class A { int v; void bump() { this.v = this.v + 1; } } class Main { \
     static int main() { A a = new A(); a.bump(); a.bump(); return a.v; } }"
  in
  let _, er, _ft = run_with_detectors src in
  Alcotest.(check int) "single-thread exclusive" 0
    (List.length (Eraser.reports er))

let test_read_shared_no_eraser_report () =
  (* concurrent reads only: Shared state, no report *)
  let src =
    "class A { int v; int r() { return this.v; } } class Main { static int \
     main() { A a = new A(); thread t1 = spawn a.r(); thread t2 = spawn \
     a.r(); join t1; join t2; return 0; } }"
  in
  let ls, er, ft = run_with_detectors src in
  Alcotest.(check int) "read-shared clean" 0 (List.length (Eraser.reports er));
  Alcotest.(check int) "read-read not a candidate" 0 (List.length (Lockset.candidates ls));
  Alcotest.(check int) "fasttrack read-share clean" 0 (List.length (Fasttrack.reports ft))

let test_dedup () =
  let ls, _, _ = run_with_detectors Testlib.Fixtures.racy_counter in
  let cands = Lockset.candidates ls in
  let keys = List.map Race.key_of cands in
  Alcotest.(check int) "candidates deduped"
    (List.length (List.sort_uniq Race.compare_key keys))
    (List.length keys)

let test_report_render () =
  let ls, _, _ = run_with_detectors Testlib.Fixtures.racy_counter in
  match Lockset.candidates ls with
  | r :: _ ->
    let s = Race.to_string r in
    Alcotest.(check bool) "mentions field" true (String.length s > 10)
  | [] -> Alcotest.fail "expected candidates"

(* The Eraser state machine as it once ran inside every lockset run:
   one transition per access, as the access is observed, with the
   variable's last access as the witness.  [Eraser.reports] replays
   each variable's history instead, only when asked; on every run the
   two must give the same reports in the same order. *)
module Eraser_reference = struct
  module AddrSet = Set.Make (Int)

  type var = { v_obj : Runtime.Value.addr; v_field : Jir.Ast.id; v_idx : int option }

  module VarMap = Map.Make (struct
    type t = var

    let compare = compare
  end)

  type eraser_state =
    | Virgin
    | Exclusive of Runtime.Value.tid
    | Shared of AddrSet.t
    | Shared_modified of AddrSet.t

  type t = {
    mutable held : AddrSet.t array;
    mutable states : (eraser_state * Race.access option) VarMap.t;
    mutable reports : Race.report list;
  }

  let held t tid =
    if tid >= Array.length t.held then begin
      let bigger = Array.make (max (tid + 1) (2 * Array.length t.held)) AddrSet.empty in
      Array.blit t.held 0 bigger 0 (Array.length t.held);
      t.held <- bigger
    end;
    t.held.(tid)

  let eraser_step t (acc : Race.access) =
    let v = { v_obj = acc.Race.a_obj; v_field = acc.Race.a_field; v_idx = acc.Race.a_idx } in
    let locks = AddrSet.of_list acc.Race.a_locks in
    let prev_state, prev_witness =
      match VarMap.find_opt v t.states with
      | Some sw -> sw
      | None -> (Virgin, None)
    in
    let report set state =
      if AddrSet.is_empty set then (
        let first = match prev_witness with Some w -> w | None -> acc in
        t.reports <-
          { Race.r_first = first; r_second = acc; r_detector = "eraser" }
          :: t.reports);
      state
    in
    let next =
      match (prev_state, acc.Race.a_kind) with
      | Virgin, `Read | Virgin, `Write -> Exclusive acc.Race.a_tid
      | Exclusive t0, _ when t0 = acc.Race.a_tid -> Exclusive t0
      | Exclusive _, `Read -> Shared locks
      | Exclusive _, `Write -> report locks (Shared_modified locks)
      | Shared c, `Read -> Shared (AddrSet.inter c locks)
      | Shared c, `Write ->
        let c' = AddrSet.inter c locks in
        report c' (Shared_modified c')
      | Shared_modified c, (`Read | `Write) ->
        let c' = AddrSet.inter c locks in
        report c' (Shared_modified c')
    in
    t.states <- VarMap.add v (next, Some acc) t.states

  let access t ~tid ~site ~kind ~obj ~field ~idx ~label ~value =
    eraser_step t
      {
        Race.a_tid = tid;
        a_site = site;
        a_kind = kind;
        a_obj = obj;
        a_field = field;
        a_idx = idx;
        a_locks = AddrSet.elements (held t tid);
        a_label = label;
        a_value = value;
      }

  let observer t (e : Runtime.Event.t) =
    match e with
    | Runtime.Event.Lock { tid; addr; _ } -> t.held.(tid) <- AddrSet.add addr (held t tid)
    | Runtime.Event.Unlock { tid; addr; _ } ->
      t.held.(tid) <- AddrSet.remove addr (held t tid)
    | Runtime.Event.Read { tid; site; obj; field; idx; label; v; _ } ->
      access t ~tid ~site ~kind:`Read ~obj ~field ~idx ~label ~value:v
    | Runtime.Event.Write { tid; site; obj; field; idx; label; v; _ } ->
      access t ~tid ~site ~kind:`Write ~obj ~field ~idx ~label ~value:v
    | _ -> ()

  let attach m =
    let t = { held = Array.make 8 AddrSet.empty; states = VarMap.empty; reports = [] } in
    Runtime.Machine.add_observer m Runtime.Machine.Every_event (observer t);
    t

  let reports t = Race.dedup (List.rev t.reports)
end

(* Every instantiable test of C1-C9 and X1-X3, run as the campaign's
   lockset pass runs it at seeds 7 and 8: the on-demand Eraser reports
   equal the per-access machine's, list for list.  The runs compared
   and the reports they hold are pinned, so the check cannot go
   vacuous. *)
let test_eraser_on_demand () =
  let runs = ref 0 and reports = ref 0 in
  let show (r : Race.report) =
    Printf.sprintf "%d/%d %s" r.Race.r_first.Race.a_label r.Race.r_second.Race.a_label
      (Race.to_string r)
  in
  List.iter
    (fun (e : Corpus.Corpus_def.entry) ->
      let an =
        match Eval.Evaluate.analyze_entry e with
        | Ok (_, an) -> an
        | Error msg -> Alcotest.failf "%s: %s" e.Corpus.Corpus_def.e_id msg
      in
      List.iteri
        (fun i t ->
          let instantiate = Narada_core.Pipeline.instantiator an t in
          List.iter
            (fun seed ->
              match instantiate () with
              | Error _ -> ()
              | Ok inst ->
                let m = inst.Racefuzzer.ri_machine in
                let er = Eraser.attach m in
                let reference = Eraser_reference.attach m in
                ignore (Conc.Exec.run m (Conc.Scheduler.random ~seed));
                let expected = Eraser_reference.reports reference in
                incr runs;
                reports := !reports + List.length expected;
                Alcotest.(check (list string))
                  (Printf.sprintf "%s test %d seed %Ld" e.Corpus.Corpus_def.e_id i seed)
                  (List.map show expected)
                  (List.map show (Eraser.reports er)))
            [ 7L; 8L ])
        an.Narada_core.Pipeline.an_tests)
    (Corpus.Registry.all @ Corpus.Registry.extras);
  Alcotest.(check (pair int int)) "runs compared, reports" (1160, 2793) (!runs, !reports)

(* The hybrid pair collector as it paired every recorded access:
   bookkeeping and [candidates] verbatim.  [Lockset.candidates] pairs
   only the first access of each (site, kind, tid, locks) per variable;
   on every run the two must give the same reports (witnesses and
   order). *)
module Pairs_reference = struct
  module AddrSet = Set.Make (Int)

  type var = { v_obj : Runtime.Value.addr; v_field : Jir.Ast.id; v_idx : int option }

  let compare_var a b =
    match Int.compare a.v_obj b.v_obj with
    | 0 -> (
      match String.compare a.v_field b.v_field with
      | 0 -> Option.compare Int.compare a.v_idx b.v_idx
      | c -> c)
    | c -> c

  module VarMap = Map.Make (struct
    type t = var

    let compare = compare_var
  end)

  type t = {
    mutable held : AddrSet.t array;
    mutable history : Race.access list VarMap.t;
  }

  let held t tid =
    if tid >= Array.length t.held then begin
      let bigger = Array.make (max (tid + 1) (2 * Array.length t.held)) AddrSet.empty in
      Array.blit t.held 0 bigger 0 (Array.length t.held);
      t.held <- bigger
    end;
    t.held.(tid)

  let access t ~tid ~site ~kind ~obj ~field ~idx ~label ~value =
    let acc =
      {
        Race.a_tid = tid;
        a_site = site;
        a_kind = kind;
        a_obj = obj;
        a_field = field;
        a_idx = idx;
        a_locks = AddrSet.elements (held t tid);
        a_label = label;
        a_value = value;
      }
    in
    t.history <-
      VarMap.update
        { v_obj = obj; v_field = field; v_idx = idx }
        (function None -> Some [ acc ] | Some l -> Some (acc :: l))
        t.history

  let observer t (e : Runtime.Event.t) =
    match e with
    | Runtime.Event.Lock { tid; addr; _ } -> t.held.(tid) <- AddrSet.add addr (held t tid)
    | Runtime.Event.Unlock { tid; addr; _ } ->
      t.held.(tid) <- AddrSet.remove addr (held t tid)
    | Runtime.Event.Read { tid; site; obj; field; idx; label; v; _ } ->
      access t ~tid ~site ~kind:`Read ~obj ~field ~idx ~label ~value:v
    | Runtime.Event.Write { tid; site; obj; field; idx; label; v; _ } ->
      access t ~tid ~site ~kind:`Write ~obj ~field ~idx ~label ~value:v
    | _ -> ()

  let attach m =
    let t = { held = Array.make 8 AddrSet.empty; history = VarMap.empty } in
    Runtime.Machine.add_observer m Runtime.Machine.Every_event (observer t);
    t

  let disjoint a b = not (List.exists (fun x -> List.mem x b) a)

  let candidates t : Race.report list =
    let out = ref [] in
    VarMap.iter
      (fun _v accs ->
        let accs = Array.of_list (List.rev accs) in
        let n = Array.length accs in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            let a = accs.(i) and b = accs.(j) in
            if
              a.Race.a_tid <> b.Race.a_tid
              && (a.Race.a_kind = `Write || b.Race.a_kind = `Write)
              && disjoint a.Race.a_locks b.Race.a_locks
            then
              out :=
                { Race.r_first = a; r_second = b; r_detector = "lockset-pairs" }
                :: !out
          done
        done)
      t.history;
    Race.dedup (List.rev !out)
end

(* Every lockset run the campaign makes at seed 7 (its three schedules
   of every test) on C1-C9 and X1-X3 and on 200 generated programs:
   [run name instantiate seed] checks one run and returns the reports
   it compared.  Returns the (runs, reports) counts of the corpus and of
   the generated programs. *)
let campaign_runs run =
  let seeds = List.init 3 (fun i -> Int64.add 7L (Int64.of_int (i * 1299709))) in
  let check_analysis name (an : Narada_core.Pipeline.analysis) =
    let runs = ref 0 and reports = ref 0 in
    List.iteri
      (fun i t ->
        let instantiate = Narada_core.Pipeline.instantiator an t in
        List.iter
          (fun seed ->
            match instantiate () with
            | Error _ -> ()
            | Ok inst ->
              incr runs;
              reports :=
                !reports + run (Printf.sprintf "%s test %d seed %Ld" name i seed) inst seed)
          seeds)
      an.Narada_core.Pipeline.an_tests;
    (!runs, !reports)
  in
  let sum l = List.fold_left (fun (a, b) (c, d) -> (a + c, b + d)) (0, 0) l in
  let corpus =
    sum
      (List.map
         (fun (e : Corpus.Corpus_def.entry) ->
           match Eval.Evaluate.analyze_entry e with
           | Ok (_, an) -> check_analysis e.Corpus.Corpus_def.e_id an
           | Error msg -> Alcotest.failf "%s: %s" e.Corpus.Corpus_def.e_id msg)
         (Corpus.Registry.all @ Corpus.Registry.extras))
  in
  let generated =
    sum
      (List.init 200 (fun s ->
           let cu = Jir.Compile.compile_unit (Fuzz.Gen.generate ~seed:(Int64.of_int s)) in
           match
             Narada_core.Pipeline.analyze cu ~client_classes:[ Fuzz.Gen.seed_cls ]
               ~seed_cls:Fuzz.Gen.seed_cls ~seed_meth:Fuzz.Gen.seed_meth
           with
           | Ok an -> check_analysis (Printf.sprintf "Gen seed %d" s) an
           | Error _ -> (0, 0)))
  in
  (corpus, generated)

(* Every campaign lockset run: the distinct-access pairs equal the
   all-access reference's, report for report.  The runs compared and
   the reports they hold are pinned, so the check cannot go vacuous. *)
let test_pairs_distinct () =
  let show (r : Race.report) =
    Printf.sprintf "%d/%d %s" r.Race.r_first.Race.a_label r.Race.r_second.Race.a_label
      (Race.to_string r)
  in
  let corpus, generated =
    campaign_runs (fun what inst seed ->
        let m = inst.Racefuzzer.ri_machine in
        let ls = Lockset.attach m in
        let reference = Pairs_reference.attach m in
        ignore (Conc.Exec.run m (Conc.Scheduler.random ~seed));
        let expected = Pairs_reference.candidates reference in
        Alcotest.(check (list string))
          what (List.map show expected)
          (List.map show (Lockset.candidates ls));
        List.length expected)
  in
  Alcotest.(check (pair int int)) "corpus runs compared, reports" (1740, 5685) corpus;
  Alcotest.(check (pair int int)) "generated runs compared, reports" (1701, 7940) generated

(* Every campaign lockset run twice, from two instances of its test: on
   a machine whose only observer is the lockset, so the machine builds
   only synchronization and access events, and on one an every-event
   observer watches too.  The candidates (labels, values and order)
   and the labels used must be equal.  The runs compared and the
   reports they hold are pinned, so the check cannot go vacuous. *)
let test_subscribed_run () =
  let show (r : Race.report) =
    let side (a : Race.access) =
      Printf.sprintf "%d=%s" a.Race.a_label (Runtime.Value.to_string a.Race.a_value)
    in
    Printf.sprintf "%s/%s %s" (side r.Race.r_first) (side r.Race.r_second) (Race.to_string r)
  in
  let corpus, generated =
    campaign_runs (fun what inst seed ->
        let observe ~full =
          let m = Runtime.Machine.copy inst.Racefuzzer.ri_machine in
          let ls = Lockset.attach m in
          if full then Runtime.Machine.add_observer m Runtime.Machine.Every_event ignore;
          ignore (Conc.Exec.run m (Conc.Scheduler.random ~seed));
          (List.map show (Lockset.candidates ls), Runtime.Machine.labels_used m)
        in
        let expected, expected_labels = observe ~full:true in
        let subscribed, labels = observe ~full:false in
        Alcotest.(check (list string)) what expected subscribed;
        Alcotest.(check int) (what ^ ": labels used") expected_labels labels;
        List.length expected)
  in
  Alcotest.(check (pair int int)) "corpus runs compared, reports" (1740, 5685) corpus;
  Alcotest.(check (pair int int)) "generated runs compared, reports" (1701, 7940) generated

let () =
  Alcotest.run "detectors"
    [
      ( "ground truth",
        [
          Alcotest.test_case "racy counter flagged" `Quick test_racy_counter_flagged;
          Alcotest.test_case "safe counter clean" `Quick test_safe_counter_clean;
          Alcotest.test_case "different locks" `Quick test_different_locks;
        ] );
      ( "happens-before",
        [
          Alcotest.test_case "join edge" `Quick test_join_edge;
          Alcotest.test_case "lock edge" `Quick test_lock_edge;
        ] );
      ( "granularity",
        [
          Alcotest.test_case "disjoint slots" `Quick test_array_element_granularity;
          Alcotest.test_case "same slot" `Quick test_same_element_races;
        ] );
      ( "eraser states",
        [
          Alcotest.test_case "exclusive" `Quick test_eraser_state_machine;
          Alcotest.test_case "read shared" `Quick test_read_shared_no_eraser_report;
          Alcotest.test_case "on demand = per access" `Quick test_eraser_on_demand;
        ] );
      ( "lockset pairs",
        [
          Alcotest.test_case "distinct accesses = all accesses" `Quick test_pairs_distinct;
          Alcotest.test_case "subscribed run = fully observed run" `Quick test_subscribed_run;
        ] );
      ( "reports",
        [
          Alcotest.test_case "dedup" `Quick test_dedup;
          Alcotest.test_case "render" `Quick test_report_render;
        ] );
    ]
