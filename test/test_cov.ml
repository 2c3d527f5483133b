(* Coverage-metric tests: feature fingerprints are order-normalized,
   coverage sets form a commutative monoid under union (the contract
   that makes per-class coverage jobs-count independent), of_trace
   extracts the expected HB/lock-order features, and corpus checkpoints
   round-trip byte-identically. *)

let fp_list_gen =
  QCheck.Gen.(
    list_size (int_bound 12)
      (pair
         (oneofl [ Cov.Racy_pair; Cov.Hb_edge; Cov.Lock_order; Cov.Postponed ])
         (map Int64.of_int (int_range (-5000) 5000))))

let set_of_features fs =
  List.fold_left (fun acc (k, fp) -> Cov.Set.add k fp acc) Cov.Set.empty fs

let arb_set =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "<set of %d features>" (Cov.Set.total s))
    (QCheck.Gen.map set_of_features fp_list_gen)

let qcheck_union_associative =
  QCheck.Test.make ~name:"union associative" ~count:500
    (QCheck.triple arb_set arb_set arb_set)
    (fun (a, b, c) ->
      Cov.Set.equal
        (Cov.Set.union a (Cov.Set.union b c))
        (Cov.Set.union (Cov.Set.union a b) c))

let qcheck_union_commutative =
  QCheck.Test.make ~name:"union commutative" ~count:500
    (QCheck.pair arb_set arb_set)
    (fun (a, b) -> Cov.Set.equal (Cov.Set.union a b) (Cov.Set.union b a))

let qcheck_union_identity =
  QCheck.Test.make ~name:"union identity" ~count:200 arb_set (fun s ->
      Cov.Set.equal (Cov.Set.union s Cov.Set.empty) s
      && Cov.Set.equal (Cov.Set.union Cov.Set.empty s) s)

let qcheck_union_idempotent =
  QCheck.Test.make ~name:"union idempotent" ~count:200 arb_set (fun s ->
      Cov.Set.equal (Cov.Set.union s s) s)

(* A corpus admits a run with the features it adds to the coverage so far. *)
let qcheck_novelty_matches_diff =
  QCheck.Test.make ~name:"novelty = |diff|" ~count:500
    (QCheck.pair arb_set arb_set)
    (fun (base, s) ->
      let c = Cov.Corpus.create () in
      ignore (Cov.Corpus.note c ~seed:0L ~prefix:[] base);
      Cov.Corpus.note c ~seed:1L ~prefix:[] s
      = Cov.Set.total (Cov.Set.union base s) - Cov.Set.total base)

(* The same features unioned from 4 domains (any join order) must equal
   the sequential union — the property class_coverage relies on. *)
let test_union_domain_independent () =
  Par.set_max_domains 4;
  let slice d =
    set_of_features
      (List.init 50 (fun i ->
           ( List.nth
               [ Cov.Racy_pair; Cov.Hb_edge; Cov.Lock_order; Cov.Postponed ]
               ((d + i) mod 4),
             Int64.of_int ((d * 37) + (i * 13)) )))
  in
  let sequential =
    List.fold_left
      (fun acc d -> Cov.Set.union acc (slice d))
      Cov.Set.empty [ 0; 1; 2; 3 ]
  in
  let domains =
    List.map (fun d -> Domain.spawn (fun () -> slice d)) [ 0; 1; 2; 3 ]
  in
  let parallel =
    (* join and fold in reverse order: union must not care *)
    List.fold_left
      (fun acc t -> Cov.Set.union (Domain.join t) acc)
      Cov.Set.empty (List.rev domains)
  in
  Alcotest.(check bool) "4-domain union = sequential" true
    (Cov.Set.equal sequential parallel);
  Alcotest.(check int) "total agrees" (Cov.Set.total sequential)
    (Cov.Set.total parallel)

let test_fingerprint_normalization () =
  let s1 = { Runtime.Event.s_meth = "C.a"; s_pc = 3 } in
  let s2 = { Runtime.Event.s_meth = "C.b"; s_pc = 7 } in
  Alcotest.(check int64) "racy pair order-normalized"
    (Cov.racy_pair ~field:"f" s1 s2)
    (Cov.racy_pair ~field:"f" s2 s1);
  Alcotest.(check bool) "field distinguishes" true
    (Cov.racy_pair ~field:"f" s1 s2 <> Cov.racy_pair ~field:"g" s1 s2);
  Alcotest.(check int64) "postponed set order-insensitive"
    (Cov.postponed_state [ (1, "x"); (2, "y") ])
    (Cov.postponed_state [ (2, "y"); (1, "x") ]);
  Alcotest.(check bool) "hb kinds distinguished" true
    (Cov.hb_edge Cov.Spawn ~src:1 ~dst:2 0
    <> Cov.hb_edge Cov.Join ~src:1 ~dst:2 0);
  Alcotest.(check bool) "lock order directed" true
    (Cov.lock_order ~outer:10 ~inner:20 <> Cov.lock_order ~outer:20 ~inner:10)

(* Hand-built traces for of_trace: Trace.t is just an event array. *)
let lock tid addr label =
  Runtime.Event.Lock { label; tid; frame = 0; addr }

let unlock tid addr label =
  Runtime.Event.Unlock { label; tid; frame = 0; addr }

let test_of_trace_spawn_join () =
  let v = Runtime.Value.Vnull in
  let trace =
    [|
      Runtime.Event.Spawned
        { label = 0; tid = 0; new_tid = 1; qname = "C.m"; recv = v; args = [] };
      Runtime.Event.Joined { label = 1; tid = 0; joined = 1 };
    |]
  in
  let cov = Cov.of_trace trace in
  Alcotest.(check int) "two hb edges" 2 (Cov.Set.count Cov.Hb_edge cov);
  Alcotest.(check bool) "spawn edge present" true
    (Cov.Set.mem Cov.Hb_edge (Cov.hb_edge Cov.Spawn ~src:0 ~dst:1 0) cov);
  Alcotest.(check bool) "join edge present" true
    (Cov.Set.mem Cov.Hb_edge (Cov.hb_edge Cov.Join ~src:1 ~dst:0 0) cov)

let test_of_trace_lock_order () =
  (* t0 nests lock 20 inside lock 10: one (10, 20) order feature. *)
  let trace =
    [| lock 0 10 0; lock 0 20 1; unlock 0 20 2; unlock 0 10 3 |]
  in
  let cov = Cov.of_trace trace in
  Alcotest.(check int) "one lock order" 1 (Cov.Set.count Cov.Lock_order cov);
  Alcotest.(check bool) "outer 10 inner 20" true
    (Cov.Set.mem Cov.Lock_order (Cov.lock_order ~outer:10 ~inner:20) cov);
  Alcotest.(check int) "no hb edge from same-thread reacquire" 0
    (Cov.Set.count Cov.Hb_edge cov)

let test_of_trace_rel_acq () =
  (* t0 releases lock 10, then t1 acquires it: one rel→acq edge.
     t0's own re-acquisition must not produce an edge. *)
  let trace =
    [|
      lock 0 10 0; unlock 0 10 1; lock 0 10 2; unlock 0 10 3; lock 1 10 4;
    |]
  in
  let cov = Cov.of_trace trace in
  Alcotest.(check int) "one hb edge" 1 (Cov.Set.count Cov.Hb_edge cov);
  Alcotest.(check bool) "rel_acq t0->t1 on 10" true
    (Cov.Set.mem Cov.Hb_edge (Cov.hb_edge Cov.Rel_acq ~src:0 ~dst:1 10) cov)

let test_record_counters () =
  let reg = Obs.Metrics.create () in
  let set =
    Cov.Set.add Cov.Racy_pair (Int64.of_int 1)
      (Cov.Set.add Cov.Racy_pair (Int64.of_int 2)
         (Cov.Set.add Cov.Postponed (Int64.of_int 3) Cov.Set.empty))
  in
  Cov.record ~registry:reg ~prefix:"cov/t" set;
  let c name = Obs.Metrics.counter_value reg name in
  Alcotest.(check int) "racy_pair" 2 (c "cov/t/racy_pair");
  Alcotest.(check int) "postponed" 1 (c "cov/t/postponed");
  Alcotest.(check int) "total" 3 (c "cov/t/total")

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)
(* ------------------------------------------------------------------ *)

let feature i = Int64.of_int (i * 97)

let build_corpus () =
  let c = Cov.Corpus.create () in
  let s1 = Cov.Set.add Cov.Racy_pair (feature 1) Cov.Set.empty in
  let s2 =
    Cov.Set.add Cov.Racy_pair (feature 1)
      (Cov.Set.add Cov.Postponed (feature 2)
         (Cov.Set.add Cov.Hb_edge (feature 3) Cov.Set.empty))
  in
  ignore (Cov.Corpus.note c ~seed:11L ~prefix:[] s1);
  ignore (Cov.Corpus.note c ~seed:22L ~prefix:[ 1; 0; 2 ] s2);
  c

let test_corpus_note_and_rank () =
  let c = build_corpus () in
  Alcotest.(check int) "two entries" 2 (Cov.Corpus.size c);
  (* the duplicate feature contributes no gain the second time *)
  let gains =
    List.map (fun e -> e.Cov.Corpus.en_gain) (Cov.Corpus.entries c)
  in
  Alcotest.(check (list int)) "gains" [ 1; 2 ] gains;
  (match Cov.Corpus.ranked c with
  | top :: _ -> Alcotest.(check int64) "highest gain first" 22L top.Cov.Corpus.en_seed
  | [] -> Alcotest.fail "empty ranking");
  let zero =
    Cov.Corpus.note c ~seed:33L ~prefix:[]
      (Cov.Set.add Cov.Racy_pair (feature 1) Cov.Set.empty)
  in
  Alcotest.(check int) "no novelty, no admission" 0 zero;
  Alcotest.(check int) "still two entries" 2 (Cov.Corpus.size c)

let test_corpus_roundtrip () =
  let c = build_corpus () in
  let path = Filename.temp_file "narada_corpus" ".nar" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cov.Corpus.save c path;
      match Cov.Corpus.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok c' ->
        Alcotest.(check string) "digest preserved" (Cov.Corpus.digest c)
          (Cov.Corpus.digest c');
        Alcotest.(check bool) "coverage preserved" true
          (Cov.Set.equal (Cov.Corpus.coverage c) (Cov.Corpus.coverage c'));
        Alcotest.(check bool) "entries preserved" true
          (Cov.Corpus.entries c = Cov.Corpus.entries c');
        (* saving the loaded corpus is byte-identical *)
        let path2 = Filename.temp_file "narada_corpus" ".nar" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path2)
          (fun () ->
            Cov.Corpus.save c' path2;
            let read p =
              let ic = open_in_bin p in
              Fun.protect
                ~finally:(fun () -> close_in ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            in
            Alcotest.(check string) "checkpoint stable" (read path)
              (read path2)))

let test_corpus_save_atomic () =
  (* save goes through a tmp file + rename: after a save the tmp file
     is gone, and overwriting an existing checkpoint never leaves a
     torn file behind (a concurrent reader sees old or new, not half) *)
  let c = build_corpus () in
  let path = Filename.temp_file "narada_corpus" ".nar" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Cov.Corpus.save c path;
      Alcotest.(check bool) "no tmp residue" false
        (Sys.file_exists (path ^ ".tmp"));
      Cov.Corpus.save c path;
      Alcotest.(check bool) "no tmp residue after overwrite" false
        (Sys.file_exists (path ^ ".tmp"));
      match Cov.Corpus.load path with
      | Error e -> Alcotest.failf "reload failed: %s" e
      | Ok c' ->
        Alcotest.(check string) "digest intact" (Cov.Corpus.digest c)
          (Cov.Corpus.digest c'))

let test_corpus_load_rejects_garbage () =
  let path = Filename.temp_file "narada_corpus" ".nar" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a corpus\n";
      close_out oc;
      match Cov.Corpus.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage accepted")

let () =
  Alcotest.run "cov"
    [
      ( "monoid",
        [
          QCheck_alcotest.to_alcotest qcheck_union_associative;
          QCheck_alcotest.to_alcotest qcheck_union_commutative;
          QCheck_alcotest.to_alcotest qcheck_union_identity;
          QCheck_alcotest.to_alcotest qcheck_union_idempotent;
          QCheck_alcotest.to_alcotest qcheck_novelty_matches_diff;
          Alcotest.test_case "4-domain union" `Quick
            test_union_domain_independent;
        ] );
      ( "features",
        [
          Alcotest.test_case "fingerprint normalization" `Quick
            test_fingerprint_normalization;
          Alcotest.test_case "of_trace spawn/join" `Quick
            test_of_trace_spawn_join;
          Alcotest.test_case "of_trace lock order" `Quick
            test_of_trace_lock_order;
          Alcotest.test_case "of_trace rel_acq" `Quick test_of_trace_rel_acq;
          Alcotest.test_case "record counters" `Quick test_record_counters;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "note and rank" `Quick test_corpus_note_and_rank;
          Alcotest.test_case "checkpoint roundtrip" `Quick
            test_corpus_roundtrip;
          Alcotest.test_case "atomic save" `Quick test_corpus_save_atomic;
          Alcotest.test_case "garbage rejected" `Quick
            test_corpus_load_rejects_garbage;
        ] );
    ]
