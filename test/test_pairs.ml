(* Racy-pair generation tests (§3.3). *)

open Narada_core

let pairs_of src =
  let an = Testlib.Fixtures.analyze src in
  an.Pipeline.an_pairs

let test_fig1_pairs () =
  let pairs = pairs_of Testlib.Fixtures.fig1 in
  (* all pairs race on count; update×update and update×get must appear *)
  List.iter
    (fun p -> Alcotest.(check string) "field" "count" p.Pairs.p_field)
    pairs;
  let has qa qb =
    List.exists
      (fun (p : Pairs.pair) ->
        (p.Pairs.p_a.Pairs.ep_qname = qa && p.Pairs.p_b.Pairs.ep_qname = qb)
        || (p.Pairs.p_a.Pairs.ep_qname = qb && p.Pairs.p_b.Pairs.ep_qname = qa))
      pairs
  in
  Alcotest.(check bool) "update x update" true (has "Lib.update" "Lib.update");
  Alcotest.(check bool) "update x get" true (has "Lib.update" "Counter.get")

let test_at_least_one_write () =
  List.iter
    (fun (p : Pairs.pair) ->
      Alcotest.(check bool) "one side writes" true
        (p.Pairs.p_a.Pairs.ep_kind = Access.Kwrite
        || p.Pairs.p_b.Pairs.ep_kind = Access.Kwrite))
    (pairs_of Testlib.Fixtures.fig1)

let test_no_ctor_endpoints () =
  List.iter
    (fun (p : Pairs.pair) ->
      List.iter
        (fun (e : Pairs.endpoint) ->
          Alcotest.(check bool) "no constructor endpoints" false
            (String.equal e.Pairs.ep_meth Jir.Ast.ctor_name
            && e.Pairs.ep_site.Runtime.Event.s_meth
               |> String.split_on_char '.'
               |> List.exists (String.equal "<init>")))
        [ p.Pairs.p_a; p.Pairs.p_b ])
    (pairs_of Testlib.Fixtures.fig1)

let test_no_protected_only_pairs () =
  (* A fully synchronized class yields no pairs. *)
  let src =
    {|
class Safe {
  int v;
  synchronized void set(int x) { this.v = x; }
  synchronized int get() { return this.v; }
}
class Seed {
  static void main() {
    Safe s = new Safe();
    s.set(3);
    int x = s.get();
  }
}
|}
  in
  Alcotest.(check int) "no pairs" 0 (List.length (pairs_of src))

let test_unsync_class_pairs () =
  (* A fully unsynchronized class yields write/write and read/write pairs. *)
  let src =
    {|
class Unsafe {
  int v;
  void set(int x) { this.v = x; }
  int get() { return this.v; }
}
class Seed {
  static void main() {
    Unsafe s = new Unsafe();
    s.set(3);
    int x = s.get();
  }
}
|}
  in
  let pairs = pairs_of src in
  Alcotest.(check bool) "some pairs" true (List.length pairs >= 2);
  Alcotest.(check bool) "set x set same-label pair" true
    (List.exists
       (fun (p : Pairs.pair) ->
         p.Pairs.p_a.Pairs.ep_qname = "Unsafe.set"
         && p.Pairs.p_b.Pairs.ep_qname = "Unsafe.set")
       pairs)

let test_read_read_excluded () =
  let src =
    {|
class R {
  int v;
  int get() { return this.v; }
  int peek() { return this.v; }
}
class Seed {
  static void main() {
    R r = new R();
    int a = r.get();
    int b = r.peek();
  }
}
|}
  in
  (* reads only: no write anywhere, so no racy pair *)
  Alcotest.(check int) "no read-read pairs" 0 (List.length (pairs_of src))

let test_dedup_by_site () =
  let pairs = pairs_of Testlib.Fixtures.fig1 in
  let keys = List.map Pairs.key_of pairs in
  let uniq = List.sort_uniq compare keys in
  Alcotest.(check int) "no duplicate pairs" (List.length uniq) (List.length keys)

(* [Pairs.key_of] identifies a pair by its *unordered* site pair plus
   the field: swapping the endpoints must not change the key, so the
   generator can never emit both orientations of one race. *)
let test_key_unordered () =
  let pairs = pairs_of Testlib.Fixtures.fig1 in
  Alcotest.(check bool) "nonempty" true (pairs <> []);
  List.iter
    (fun (p : Pairs.pair) ->
      let swapped = { p with Pairs.p_a = p.Pairs.p_b; p_b = p.Pairs.p_a } in
      Alcotest.(check bool) "key invariant under endpoint swap" true
        (Pairs.key_of p = Pairs.key_of swapped))
    pairs;
  (* and no two generated pairs are each other's swap *)
  List.iteri
    (fun i p ->
      List.iteri
        (fun j q ->
          if i <> j then
            Alcotest.(check bool) "no swapped duplicate" false
              (Pairs.key_of p = Pairs.key_of q))
        pairs)
    pairs

let test_owner_class_compat () =
  List.iter
    (fun (p : Pairs.pair) ->
      match (p.Pairs.p_a.Pairs.ep_owner_cls, p.Pairs.p_b.Pairs.ep_owner_cls) with
      | Some a, Some b -> Alcotest.(check string) "same owner class" a b
      | _ -> ())
    (pairs_of Testlib.Fixtures.fig13)

(* ---- exactness against the all-pairs generator ---- *)

(* The generator as it was before it compared only the first access of
   each (site, kind, field, owner class): every unprotected dynamic
   access against every usable one, deduplicated on strings.  Kept
   verbatim as the reference [Pairs.generate] must equal. *)
module Reference = struct
  open Pairs

  let key_of p =
    let sa = Runtime.Event.site_to_string p.p_a.ep_site in
    let sb = Runtime.Event.site_to_string p.p_b.ep_site in
    if String.compare sa sb <= 0 then (sa, sb, p.p_field) else (sb, sa, p.p_field)

  let owners_compatible (a : endpoint) (b : endpoint) =
    match (a.ep_owner_cls, b.ep_owner_cls) with
    | Some ca, Some cb -> String.equal ca cb
    | None, _ | _, None -> true

  let usable (a : Access.acc) =
    a.Access.acc_in_lib && not a.Access.acc_in_ctor
    && a.Access.acc_anchor <> None
    && a.Access.acc_owner_path <> None

  let generate (res : Access.result) : pair list =
    let all = List.filter usable res.Access.accesses in
    let unprot = List.filter (fun a -> a.Access.acc_unprot) all in
    let seen = Hashtbl.create 64 in
    let out = ref [] in
    let add p =
      let k = key_of p in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.replace seen k ();
        out := p :: !out
      end
    in
    List.iter
      (fun (u : Access.acc) ->
        match endpoint_of u with
        | None -> ()
        | Some eu ->
          (* (a) the same label from two threads, for writes *)
          if u.Access.acc_kind = Access.Kwrite then
            add { p_field = u.Access.acc_field; p_a = eu; p_b = eu };
          (* (b) any conflicting access to the same field *)
          List.iter
            (fun (o : Access.acc) ->
              if
                String.equal o.Access.acc_field u.Access.acc_field
                && (u.Access.acc_kind = Access.Kwrite
                   || o.Access.acc_kind = Access.Kwrite)
                && not
                     (Runtime.Event.compare_site u.Access.acc_site
                        o.Access.acc_site
                      = 0)
              then
                match endpoint_of o with
                | Some eo when owners_compatible eu eo ->
                  add { p_field = u.Access.acc_field; p_a = eu; p_b = eo }
                | Some _ | None -> ())
            all)
      unprot;
    List.rev !out
end

(* The names of the analyses whose pair list differs from the
   reference's, compared whole and in order. *)
let differing named =
  List.filter_map
    (fun (name, (an : Pipeline.analysis)) ->
      let acc = an.Pipeline.an_access in
      if Pairs.generate acc = Reference.generate acc then None else Some name)
    named

let analysis_of name = function
  | Ok an -> (name, an)
  | Error e -> Alcotest.failf "%s: pipeline failed: %s" name e

let entry_analyses () =
  List.map
    (fun (e : Corpus.Corpus_def.entry) ->
      analysis_of e.Corpus.Corpus_def.e_id
        (Result.map snd (Eval.Evaluate.analyze_entry e)))
    (Corpus.Registry.all @ Corpus.Registry.extras)

let test_exact_corpus () =
  let named = entry_analyses () in
  Alcotest.(check int) "C1-C9, X1-X3" 12 (List.length named);
  Alcotest.(check (list string)) "entries whose pairs differ" [] (differing named)

(* The fixtures with a sequential seed test (the others spawn threads
   from [main]). *)
let test_exact_fixtures () =
  let module F = Testlib.Fixtures in
  let named =
    List.map
      (fun (name, src) -> (name, F.analyze src))
      [
        ("fig1", F.fig1);
        ("fig8", F.fig8);
        ("fig13", F.fig13);
        ("return_rule", F.return_rule);
      ]
  in
  Alcotest.(check (list string)) "fixtures whose pairs differ" [] (differing named)

(* Generated programs whose seed runs; the count of pairs they give
   shows the check is not vacuous. *)
let test_exact_generated () =
  let named =
    List.filter_map
      (fun i ->
        let seed = Int64.of_int i in
        match Jir.Compile.compile_unit (Fuzz.Gen.generate ~seed) with
        | exception Jir.Diag.Error _ -> None
        | cu -> (
          match
            Pipeline.analyze cu ~client_classes:[ Fuzz.Gen.seed_cls ]
              ~seed_cls:Fuzz.Gen.seed_cls ~seed_meth:Fuzz.Gen.seed_meth
          with
          | Ok an -> Some (Printf.sprintf "gen %d" i, an)
          | Error _ -> None))
      (List.init 240 Fun.id)
  in
  Alcotest.(check bool) "at least 200 programs" true (List.length named >= 200);
  Alcotest.(check bool) "some pairs" true
    (List.exists (fun (_, an) -> an.Pipeline.an_pairs <> []) named);
  Alcotest.(check (list string)) "programs whose pairs differ" [] (differing named)

(* Every program repair re-analyzes for C3: the patch of each candidate
   it tries. *)
let test_exact_repair_candidates () =
  let e = Option.get (Corpus.Registry.find "C3") in
  let cls = e.Corpus.Corpus_def.e_seed_cls and meth = e.Corpus.Corpus_def.e_seed_meth in
  let sub =
    Repair.Engine.subject_of_unit (Corpus.Registry.compiled_unit e)
      ~client_classes:[ cls ] ~seed_cls:cls ~seed_meth:meth
  in
  let rp =
    match Repair.Engine.repair_all sub with
    | Ok rp -> rp
    | Error msg -> Alcotest.fail msg
  in
  let cands =
    List.concat_map
      (fun rr -> List.map (fun a -> a.Repair.Engine.at_cand) rr.Repair.Engine.rr_attempts)
      rp.Repair.Engine.rp_races
  in
  Alcotest.(check int) "C3's candidates" 17 (List.length cands);
  let named =
    List.mapi
      (fun i c ->
        let name = Printf.sprintf "C3 candidate %d" i in
        match Repair.Grammar.apply sub.Repair.Engine.sj_prog c with
        | Error msg -> Alcotest.failf "%s: %s" name msg
        | Ok prog ->
          analysis_of name
            (Pipeline.analyze (Jir.Compile.compile_unit prog) ~client_classes:[ cls ]
               ~seed_cls:cls ~seed_meth:meth))
      cands
  in
  Alcotest.(check (list string)) "patched programs whose pairs differ" []
    (differing named)

let () =
  Alcotest.run "pairs"
    [
      ( "generation",
        [
          Alcotest.test_case "fig1 pairs" `Quick test_fig1_pairs;
          Alcotest.test_case "one write" `Quick test_at_least_one_write;
          Alcotest.test_case "no ctor endpoints" `Quick test_no_ctor_endpoints;
          Alcotest.test_case "dedup" `Quick test_dedup_by_site;
          Alcotest.test_case "unordered key" `Quick test_key_unordered;
          Alcotest.test_case "owner compat" `Quick test_owner_class_compat;
        ] );
      ( "filtering",
        [
          Alcotest.test_case "synchronized class clean" `Quick
            test_no_protected_only_pairs;
          Alcotest.test_case "unsynchronized class racy" `Quick
            test_unsync_class_pairs;
          Alcotest.test_case "read-read excluded" `Quick test_read_read_excluded;
        ] );
      ( "exactness",
        [
          Alcotest.test_case "C1-C9, X1-X3" `Quick test_exact_corpus;
          Alcotest.test_case "fixtures" `Quick test_exact_fixtures;
          Alcotest.test_case "generated" `Quick test_exact_generated;
          Alcotest.test_case "C3 patches" `Quick test_exact_repair_candidates;
        ] );
    ]
