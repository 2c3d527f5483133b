(* Repair-grammar and CEGIS-engine tests: cost ordering of the
   candidate enumeration, the deadlock gate on repair-shaped programs
   (a nested synchronized insertion that inverts a lock order must be
   rejected, with the global-lock fallback passing instead), the one
   seed recording per program, and the whole-corpus verdicts. *)

module Grammar = Repair.Grammar
module Engine = Repair.Engine
module Pipeline = Narada_core.Pipeline
module Synth = Narada_core.Synth

let compile src = Jir.Compile.compile_source src

let subject_of src ~client ~entry =
  Engine.subject_of_unit (compile src) ~client_classes:[ client ]
    ~seed_cls:client ~seed_meth:entry

(* One unguarded writer against a reader guarded by [this]: the minimal
   repair is a single wrap of the writer's one racy statement. *)
let counter_src =
  {|
class Counter {
  int count;

  void bump() {
    this.count = this.count + 1;
  }

  synchronized int get() {
    return this.count;
  }
}

class Seed {
  static void main() {
    Counter c = new Counter();
    c.bump();
    int x = c.get();
    Sys.print(x);
  }
}
|}

let counter_race () =
  let side cls meth = { Grammar.sd_cls = cls; sd_meth = meth } in
  {
    Grammar.rid_field = "count";
    rid_a = side "Counter" "bump";
    rid_b = side "Counter" "get";
  }

(* Symmetric cross-object copy: each instance reads its peer's field
   under only its own monitor.  The owner-lock wrap (synchronized on
   [this.other] around the body) creates a fresh Node->Node nesting the
   sequential seed never showed — a self-pairing ABBA — so the deadlock
   gate must reject it and the engine must fall through to the global
   lock. *)
let symmetric_src =
  {|
class Node {
  int x;
  Node other;

  void init(Node o) {
    this.other = o;
  }

  void copyFrom() {
    synchronized (this) {
      this.x = this.other.x + 1;
    }
  }

  int get() {
    synchronized (this) {
      return this.x;
    }
  }
}

class Seed {
  static void main() {
    Node a = new Node();
    Node b = new Node();
    a.init(b);
    b.init(a);
    a.copyFrom();
    b.copyFrom();
    int x = a.get();
    Sys.print(x);
  }
}
|}

(* ---- grammar cost model ---- *)

let test_base_cost_order () =
  Alcotest.(check bool)
    "replace < wrap < sync-method < global surcharge" true
    (Grammar.cost_replace < Grammar.cost_wrap
    && Grammar.cost_wrap < Grammar.cost_sync_method
    && Grammar.cost_sync_method < Grammar.cost_global)

let test_candidates_sorted_by_cost () =
  let sub = subject_of counter_src ~client:"Seed" ~entry:"main" in
  let cands = Grammar.candidates sub.Engine.sj_prog (counter_race ()) in
  Alcotest.(check bool) "non-empty grammar" true (cands <> []);
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Grammar.ca_cost <= b.Grammar.ca_cost && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "non-decreasing cost" true (sorted cands)

let test_minimal_candidate_is_single_wrap () =
  (* The cheapest candidate touches only the unguarded side: one wrap
     of bump's single statement under [this], keeping get as-is.  The
     whole-method [synchronized] rewrite must cost strictly more. *)
  let sub = subject_of counter_src ~client:"Seed" ~entry:"main" in
  match Grammar.candidates sub.Engine.sj_prog (counter_race ()) with
  | [] -> Alcotest.fail "no candidates"
  | first :: rest ->
    let is_wrap_of_bump = function
      | Grammar.Wrap_block { wb_side; wb_len; wb_lock; _ } ->
        String.equal wb_side.Grammar.sd_meth "bump"
        && wb_len = 1
        && String.equal wb_lock.Grammar.lr_text "this"
      | _ -> false
    in
    let is_keep_get = function
      | Grammar.Keep s -> String.equal s.Grammar.sd_meth "get"
      | _ -> false
    in
    Alcotest.(check bool) "first = wrap bump stmt + keep get" true
      (List.exists is_wrap_of_bump first.Grammar.ca_actions
      && List.exists is_keep_get first.Grammar.ca_actions);
    let sync_method_cost =
      List.filter_map
        (fun c ->
          if
            List.exists
              (function
                | Grammar.Sync_method s ->
                  String.equal s.Grammar.sd_meth "bump"
                | _ -> false)
              c.Grammar.ca_actions
          then Some c.Grammar.ca_cost
          else None)
        (first :: rest)
    in
    List.iter
      (fun c ->
        Alcotest.(check bool) "method-sync costs more than the wrap" true
          (first.Grammar.ca_cost < c))
      sync_method_cost

let test_keep_costs_nothing () =
  let sub = subject_of counter_src ~client:"Seed" ~entry:"main" in
  List.iter
    (fun c ->
      let keeps, others =
        List.partition
          (function Grammar.Keep _ -> true | _ -> false)
          c.Grammar.ca_actions
      in
      ignore keeps;
      Alcotest.(check bool) "no all-keep candidate" true (others <> []))
    (Grammar.candidates sub.Engine.sj_prog (counter_race ()))

(* ---- the deadlock gate on repair-shaped programs ---- *)

let quick_opts =
  { Engine.default_options with Engine.eo_schedules = 1; eo_confirm_runs = 3 }

let test_inverting_wrap_rejected () =
  (* Hand-build the owner-lock wrap for copyFrom (nest the peer's
     monitor outside [synchronized (this)]) and validate it: the
     deadlock gate must kill it with the self-pairing Node<->Node
     ABBA. *)
  let sub = subject_of symmetric_src ~client:"Seed" ~entry:"main" in
  let side = { Grammar.sd_cls = "Node"; sd_meth = "copyFrom" } in
  let rid = { Grammar.rid_field = "x"; rid_a = side; rid_b = side } in
  let lock =
    List.find_opt
      (fun (c : Grammar.candidate) ->
        c.Grammar.ca_global = None
        && List.exists
             (function
               | Grammar.Wrap_block { wb_lock; _ } ->
                 String.equal wb_lock.Grammar.lr_text "this.other"
               | _ -> false)
             c.Grammar.ca_actions)
      (Grammar.candidates sub.Engine.sj_prog rid)
  in
  match lock with
  | None -> Alcotest.fail "owner-lock wrap candidate not enumerated"
  | Some cand -> (
    match Engine.baseline_of quick_opts sub with
    | Error e -> Alcotest.fail e
    | Ok baseline -> (
      match Engine.validate quick_opts sub baseline rid cand with
      | Ok _ -> Alcotest.fail "lock-order-inverting wrap was accepted"
      | Error (Engine.R_deadlock _) -> ()
      | Error _ -> Alcotest.fail "rejected, but not by the deadlock gate"))

let test_symmetric_race_repaired_globally () =
  (* The full loop on the same program: every confirmed race must still
     be repaired — via the global-lock fallback — with the rejected
     owner-lock attempt visible in the audit trail. *)
  let sub = subject_of symmetric_src ~client:"Seed" ~entry:"main" in
  match Engine.repair_all ~opts:quick_opts sub with
  | Error e -> Alcotest.fail e
  | Ok rp ->
    Alcotest.(check bool) "at least one race confirmed" true
      (rp.Engine.rp_confirmed > 0);
    let symmetric = ref false in
    List.iter
      (fun (rr : Engine.race_repair) ->
        match rr.Engine.rr_outcome with
        | Engine.Repaired { rc_cand; _ } ->
          (* only the symmetric x-race needs the coarse fallback; other
             confirmed races (e.g. on .other) repair locally *)
          if
            String.equal rr.Engine.rr_id.Grammar.rid_field "x"
            && String.equal rr.Engine.rr_id.Grammar.rid_a.Grammar.sd_meth
                 "copyFrom"
            && String.equal rr.Engine.rr_id.Grammar.rid_b.Grammar.sd_meth
                 "copyFrom"
          then begin
            symmetric := true;
            Alcotest.(check bool)
              ("global lock used for "
              ^ Grammar.race_id_to_string rr.Engine.rr_id)
              true
              (rc_cand.Grammar.ca_global <> None);
            Alcotest.(check bool) "a deadlock rejection precedes it" true
              (List.exists
                 (fun (a : Engine.attempt) ->
                   match a.Engine.at_result with
                   | Error (Engine.R_deadlock _) -> true
                   | _ -> false)
                 rr.Engine.rr_attempts)
          end
        | Engine.No_candidates | Engine.Not_repairable ->
          Alcotest.fail
            ("unrepaired: " ^ Grammar.race_id_to_string rr.Engine.rr_id))
      rp.Engine.rp_races;
    Alcotest.(check bool) "the symmetric copyFrom race was confirmed" true
      !symmetric

let test_counter_race_repaired_minimally () =
  let sub = subject_of counter_src ~client:"Seed" ~entry:"main" in
  match Engine.repair_all ~opts:quick_opts sub with
  | Error e -> Alcotest.fail e
  | Ok rp ->
    Alcotest.(check bool) "race confirmed" true (rp.Engine.rp_confirmed > 0);
    List.iter
      (fun (rr : Engine.race_repair) ->
        match rr.Engine.rr_outcome with
        | Engine.Repaired { rc_cand; _ } ->
          Alcotest.(check bool) "no global lock needed" true
            (rc_cand.Grammar.ca_global = None)
        | _ -> Alcotest.fail "counter race not repaired")
      rp.Engine.rp_races

let corpus_subject (e : Corpus.Corpus_def.entry) =
  let cls = e.Corpus.Corpus_def.e_seed_cls in
  Engine.subject_of_unit (Corpus.Registry.compiled_unit e) ~client_classes:[ cls ]
    ~seed_cls:cls ~seed_meth:e.Corpus.Corpus_def.e_seed_meth

let corpus_entry id =
  match Corpus.Registry.find id with
  | Some e -> e
  | None -> Alcotest.failf "no corpus entry %s" id

(* ---- one fan-out, over the races ---- *)

(* [repair_all] repairs each confirmed race against the original
   program, so [eo_jobs] widens one fan-out over the races and nothing
   inside a race fans out: C9's 8 races make 8 cursor claims, and
   confirmation executes the same VM steps at every width. *)
let test_race_fan_out () =
  let sub = corpus_subject (corpus_entry "C9") in
  let reg = Obs.Metrics.global () in
  let gauge name = List.assoc_opt name (Obs.Metrics.gauges reg) in
  let run jobs =
    Obs.Metrics.reset reg;
    match Engine.repair_all ~opts:{ Engine.default_options with Engine.eo_jobs = jobs } sub with
    | Error msg -> Alcotest.fail msg
    | Ok rp ->
      ( Engine.report_to_string ~show_attempts:true sub { rp with Engine.rp_seconds = 0.0 },
        List.filter Obs.Export.is_stable_line (Obs.Export.to_lines reg),
        gauge "par/pool/chunks",
        Obs.Metrics.counter_value reg "racefuzzer/vm_steps" )
  in
  let prev = Par.max_domains () in
  Par.set_max_domains 4;
  Fun.protect
    ~finally:(fun () -> Par.set_max_domains prev)
    (fun () ->
      (* A first run fills the process-wide compile cache, whose
         [backend/compile] counters only the first compile records. *)
      ignore (run 1);
      let report1, stable1, chunks1, steps1 = run 1 in
      let report4, stable4, chunks4, steps4 = run 4 in
      Alcotest.(check string) "report" report1 report4;
      Alcotest.(check (list string)) "stable metrics" stable1 stable4;
      Alcotest.(check (option (float 0.))) "no fan-out at width 1" None chunks1;
      Alcotest.(check (option (float 0.))) "one chunk per race" (Some 8.) chunks4;
      Alcotest.(check int) "executed confirm steps" 490 steps1;
      Alcotest.(check int) "same at width 4" steps1 steps4)

(* ---- one recording per program ---- *)

(* C1-C9, X1-X3 and the patched program of each of the 17 candidates
   repair tries on C3, each with the subject whose seed test it runs. *)
let programs () =
  let originals =
    List.map
      (fun (e : Corpus.Corpus_def.entry) ->
        let sub = corpus_subject e in
        (e.Corpus.Corpus_def.e_id, sub, sub.Engine.sj_cu))
      (Corpus.Registry.all @ Corpus.Registry.extras)
  in
  let c3 = corpus_subject (corpus_entry "C3") in
  let rp = match Engine.repair_all c3 with Ok rp -> rp | Error msg -> Alcotest.fail msg in
  let cands =
    List.concat_map
      (fun (rr : Engine.race_repair) -> List.map (fun a -> a.Engine.at_cand) rr.Engine.rr_attempts)
      rp.Engine.rp_races
  in
  Alcotest.(check int) "C3's candidates" 17 (List.length cands);
  originals
  @ List.mapi
      (fun i c ->
        match Grammar.apply c3.Engine.sj_prog c with
        | Error msg -> Alcotest.failf "C3 candidate %d: %s" i msg
        | Ok prog -> (Printf.sprintf "C3 candidate %d" i, c3, Jir.Compile.compile_unit prog))
      cands

(* Repair executes each program's seed test once.  That recording must
   give what three separate runs give: the output and result of a run at
   ([eo_seed], [Racefuzzer.fuel]), the lock-order pairs of
   [Lockorder.analyze] (the machine's default seed and fuel), and the
   pairs and tests of
   [Pipeline.analyze] (at [eo_seed] and the default fuel). *)
let test_one_recording () =
  let opts = Engine.default_options in
  let render = Result.map (Option.map Runtime.Value.to_string) in
  let lock_pairs = ref 0 in
  let differs (name, (sub : Engine.subject), cu) =
    let cls = sub.Engine.sj_seed_cls and meth = sub.Engine.sj_seed_meth in
    let client_classes = sub.Engine.sj_client_classes in
    let rc = Engine.record opts sub cu in
    let m, _, res =
      Runtime.Interp.record ~seed:opts.Engine.eo_seed ~fuel:Detect.Racefuzzer.fuel cu
        ~client_classes ~cls ~meth
    in
    let behaviour =
      String.equal rc.Engine.rec_output (Runtime.Machine.output m)
      && render rc.Engine.rec_result = render res
      && Result.is_ok res
    in
    let pairs = Engine.lock_pairs sub rc.Engine.rec_trace in
    if pairs <> [] then incr lock_pairs;
    let lockorder =
      match Deadlock.Lockorder.analyze cu ~client_classes ~seed_cls:cls ~seed_meth:meth with
      | Error _ -> false
      | Ok (_, ref_pairs) ->
        pairs
        = List.sort_uniq String.compare
            (List.map Deadlock.Lockorder.pair_to_string ref_pairs)
    in
    let keys (an : Pipeline.analysis) =
      ( List.map Narada_core.Pairs.key_of an.Pipeline.an_pairs,
        List.map (fun t -> Synth.dedup_key t.Synth.st_pair) an.Pipeline.an_tests )
    in
    let analysis =
      match Pipeline.analyze ~seed:opts.Engine.eo_seed cu ~client_classes ~seed_cls:cls ~seed_meth:meth with
      | Error _ -> false
      | Ok an ->
        keys an
        = keys
            (Pipeline.of_trace ~backend:Backend.Compiled cu ~client_classes ~seed_cls:cls
               ~seed_meth:meth rc.Engine.rec_trace)
    in
    List.filter_map
      (fun (ok, what) -> if ok then None else Some (name ^ ": " ^ what))
      [ (behaviour, "output/result"); (lockorder, "lock pairs"); (analysis, "pairs/tests") ]
  in
  let progs = programs () in
  Alcotest.(check int) "programs" 29 (List.length progs);
  Alcotest.(check (list string)) "differences" [] (List.concat_map differs progs);
  Alcotest.(check int) "programs with lock-order pairs" 19 !lock_pairs

(* Per class, at [narada repair]'s seed 42: confirmed / repaired /
   attempts / lock-order rejects / race-survives rejects. *)
let test_corpus_verdicts () =
  let opts = { Engine.default_options with Engine.eo_seed = 42L } in
  let row id =
    let sub = corpus_subject (corpus_entry id) in
    match Engine.repair_all ~opts sub with
    | Error msg -> Alcotest.failf "%s: %s" id msg
    | Ok rp ->
      let attempts = List.concat_map (fun rr -> rr.Engine.rr_attempts) rp.Engine.rp_races in
      let rejects f =
        List.length
          (List.filter
             (fun a -> match a.Engine.at_result with Error e -> f e | Ok () -> false)
             attempts)
      in
      [ rp.Engine.rp_confirmed; List.length (List.filter Engine.constructive rp.Engine.rp_races);
        List.length attempts; rejects (function Engine.R_deadlock _ -> true | _ -> false);
        rejects (function Engine.R_race_survives -> true | _ -> false) ]
  in
  let ids = List.init 9 (fun i -> Printf.sprintf "C%d" (i + 1)) in
  let rows = List.map row ids in
  let show r = String.concat "/" (List.map string_of_int r) in
  Alcotest.(check (list string)) "per class"
    [ "C1 39/39/41/2/0"; "C2 54/54/54/0/0"; "C3 11/11/17/4/2"; "C4 15/15/30/15/0";
      "C5 159/159/170/11/0"; "C6 122/122/122/0/0"; "C7 5/5/5/0/0"; "C8 24/24/24/0/0";
      "C9 8/8/8/0/0" ]
    (List.map2 (fun id r -> id ^ " " ^ show r) ids rows);
  Alcotest.(check string) "totals" "437/437/471/32/2"
    (show (List.fold_left (List.map2 ( + )) [ 0; 0; 0; 0; 0 ] rows))

let () =
  Alcotest.run "repair"
    [
      ( "grammar",
        [
          Alcotest.test_case "base cost order" `Quick test_base_cost_order;
          Alcotest.test_case "candidates sorted" `Quick
            test_candidates_sorted_by_cost;
          Alcotest.test_case "minimal is single wrap" `Quick
            test_minimal_candidate_is_single_wrap;
          Alcotest.test_case "no all-keep candidates" `Quick
            test_keep_costs_nothing;
        ] );
      ( "deadlock gate",
        [
          Alcotest.test_case "inverting wrap rejected" `Quick
            test_inverting_wrap_rejected;
          Alcotest.test_case "symmetric race repaired globally" `Quick
            test_symmetric_race_repaired_globally;
          Alcotest.test_case "counter race repaired locally" `Quick
            test_counter_race_repaired_minimally;
        ] );
      ("fan-out", [ Alcotest.test_case "one chunk per race" `Quick test_race_fan_out ]);
      ( "one recording",
        [
          Alcotest.test_case "C1-C9, X1-X3, C3 patches: = the three runs" `Quick
            test_one_recording;
          Alcotest.test_case "C1-C9 verdicts at seed 42" `Slow test_corpus_verdicts;
        ] );
    ]
