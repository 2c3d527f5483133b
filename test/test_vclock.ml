(* Vector clock laws, checked with qcheck: join is a least upper bound
   for the pointwise order, increment is strictly inflationary, and
   epochs agree with the clocks they were taken from. *)

open Detect

let vc_gen =
  QCheck.Gen.(
    map
      (fun l -> Array.of_list l)
      (list_size (int_bound 6) (int_bound 20)))

let arb_vc = QCheck.make ~print:(fun c -> Vclock.to_string c) vc_gen

let prop name count arb law =
  Testlib.Fixtures.qcheck_case (QCheck.Test.make ~name ~count arb law)

let join_commutative =
  prop "join commutative" 500
    (QCheck.pair arb_vc arb_vc)
    (fun (a, b) -> Vclock.equal (Vclock.join a b) (Vclock.join b a))

let join_associative =
  prop "join associative" 500
    (QCheck.triple arb_vc arb_vc arb_vc)
    (fun (a, b, c) ->
      Vclock.equal (Vclock.join a (Vclock.join b c)) (Vclock.join (Vclock.join a b) c))

let join_idempotent =
  prop "join idempotent" 500 arb_vc (fun a -> Vclock.equal (Vclock.join a a) a)

let join_upper_bound =
  prop "join is an upper bound" 500
    (QCheck.pair arb_vc arb_vc)
    (fun (a, b) ->
      let j = Vclock.join a b in
      Vclock.leq a j && Vclock.leq b j)

let join_least =
  prop "join is the least upper bound" 500
    (QCheck.triple arb_vc arb_vc arb_vc)
    (fun (a, b, c) ->
      QCheck.assume (Vclock.leq a c && Vclock.leq b c);
      Vclock.leq (Vclock.join a b) c)

let leq_reflexive = prop "leq reflexive" 500 arb_vc (fun a -> Vclock.leq a a)

let leq_antisym =
  prop "leq antisymmetric" 500
    (QCheck.pair arb_vc arb_vc)
    (fun (a, b) ->
      QCheck.assume (Vclock.leq a b && Vclock.leq b a);
      Vclock.equal a b)

let leq_transitive =
  prop "leq transitive" 500
    (QCheck.triple arb_vc arb_vc arb_vc)
    (fun (a, b, c) ->
      QCheck.assume (Vclock.leq a b && Vclock.leq b c);
      Vclock.leq a c)

let inc_inflates =
  prop "inc strictly inflates" 500
    (QCheck.pair arb_vc (QCheck.int_bound 7))
    (fun (a, t) ->
      let a' = Vclock.inc a t in
      Vclock.leq a a' && not (Vclock.leq a' a))

let epoch_of_vc_leq =
  prop "epoch of a clock ⪯ that clock" 500
    (QCheck.pair arb_vc (QCheck.int_bound 7))
    (fun (a, t) -> Vclock.Epoch.leq_vc (Vclock.Epoch.of_vc a t) a)

let epoch_none_bottom =
  prop "⊥ epoch precedes everything" 200 arb_vc (fun a ->
      Vclock.Epoch.leq_vc Vclock.Epoch.none a)

let unit_tests =
  [
    Alcotest.test_case "get out of range is 0" `Quick (fun () ->
        Alcotest.(check int) "missing entry" 0 (Vclock.get [| 1; 2 |] 5));
    Alcotest.test_case "set grows" `Quick (fun () ->
        let c = Vclock.set Vclock.empty 3 7 in
        Alcotest.(check int) "value" 7 (Vclock.get c 3);
        Alcotest.(check int) "padding" 0 (Vclock.get c 1));
  ]

let () =
  Alcotest.run "vclock"
    [
      ( "lattice laws",
        [
          join_commutative;
          join_associative;
          join_idempotent;
          join_upper_bound;
          join_least;
        ] );
      ("order", [ leq_reflexive; leq_antisym; leq_transitive; inc_inflates ]);
      ("epochs", [ epoch_of_vc_leq; epoch_none_bottom ]);
      ("units", unit_tests);
    ]
