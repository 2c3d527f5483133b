(* Property tests for the heap and its monitors. *)

open Runtime

(* Pinned seed by default; NARADA_QCHECK_RANDOM=1 explores. *)
let to_alcotest = Testlib.Fixtures.qcheck_case

(* Random monitor op sequences over 2 addresses and 3 threads. *)
type mop = Enter of int * int | Exit of int * int (* tid, addr-index *)

let mop_print = function
  | Enter (t, a) -> Printf.sprintf "t%d enter a%d" t a
  | Exit (t, a) -> Printf.sprintf "t%d exit a%d" t a

let gen_mops =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (let* t = int_bound 2 in
       let* a = int_bound 1 in
       let* enter = bool in
       return (if enter then Enter (t, a) else Exit (t, a))))

let arb_mops =
  QCheck.make ~print:(fun l -> String.concat "; " (List.map mop_print l)) gen_mops

(* Mutual exclusion and depth-consistency: replay ops, tracking a model
   of per-(tid,addr) depth; Heap must agree, reject foreign exits, and
   only ever report one owner. *)
let monitor_invariants ops =
  let heap = Heap.create () in
  let layout = Heap.make_layout "M" [] in
  let a0 = Heap.alloc_object heap ~layout in
  let a1 = Heap.alloc_object heap ~layout in
  let addr = function 0 -> a0 | _ -> a1 in
  let depth = Hashtbl.create 8 in
  let d t a = Option.value ~default:0 (Hashtbl.find_opt depth (t, a)) in
  let owner_model a =
    let holders = List.filter (fun t -> d t a > 0) [ 0; 1; 2 ] in
    match holders with [] -> None | [ t ] -> Some t | _ -> assert false
  in
  List.for_all
    (fun op ->
      match op with
      | Enter (t, ai) ->
        let a = addr ai in
        let expected_ok = match owner_model a with None -> true | Some o -> o = t in
        let got = Heap.try_enter heap a ~tid:t in
        if got then Hashtbl.replace depth (t, a) (d t a + 1);
        got = expected_ok
        && Heap.monitor_owner heap a = owner_model a
      | Exit (t, ai) -> (
        let a = addr ai in
        match Heap.exit heap a ~tid:t with
        | () ->
          (* exits must only succeed for the owner *)
          let ok = d t a > 0 in
          if ok then Hashtbl.replace depth (t, a) (d t a - 1);
          ok && Heap.monitor_owner heap a = owner_model a
        | exception Heap.Fault _ -> d t a = 0))
    ops

let monitor_prop =
  to_alcotest
    (QCheck.Test.make ~name:"monitor mutual exclusion and reentrancy" ~count:500
       arb_mops monitor_invariants)

(* Read-your-writes on object fields under random write sequences. *)
let field_prop =
  to_alcotest
    (QCheck.Test.make ~name:"fields: read-your-writes" ~count:500
       QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (pair (int_bound 2) small_int))
       (fun writes ->
         let heap = Heap.create () in
         let a =
           Heap.alloc_object heap
             ~layout:
               (Heap.make_layout "O"
                  [ ("f0", Jir.Ast.Tint); ("f1", Jir.Ast.Tint); ("f2", Jir.Ast.Tint) ])
         in
         let model = Hashtbl.create 4 in
         let caches = Array.init 3 (fun _ -> Heap.new_field_cache ()) in
         List.for_all
           (fun (fi, v) ->
             let f = Printf.sprintf "f%d" fi in
             Heap.set_field_cached heap caches.(fi) a f (Value.Vint v);
             Hashtbl.replace model f v;
             Hashtbl.fold
               (fun f v acc ->
                 acc && Value.equal (Heap.get_field heap a f) (Value.Vint v))
               model true)
           writes))

(* Arrays: writes land at their index and nowhere else. *)
let array_prop =
  to_alcotest
    (QCheck.Test.make ~name:"arrays: point updates" ~count:500
       QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (pair (int_bound 7) small_int))
       (fun writes ->
         let heap = Heap.create () in
         let a = Heap.alloc_array heap ~elt:Jir.Ast.Tint ~len:8 in
         let model = Array.make 8 0 in
         List.for_all
           (fun (i, v) ->
             Heap.array_set heap a i (Value.Vint v);
             model.(i) <- v;
             let ok = ref true in
             for j = 0 to 7 do
               if not (Value.equal (Heap.array_get heap a j) (Value.Vint model.(j)))
               then ok := false
             done;
             !ok)
           writes))

(* Snapshot hash is a function of canonical form. *)
let snapshot_hash_prop =
  to_alcotest
    (QCheck.Test.make ~name:"snapshot hash consistent with equality" ~count:200
       QCheck.(pair small_int small_int)
       (fun (x, y) ->
         let layout = Heap.make_layout "P" [ ("v", Jir.Ast.Tint) ] in
         let mk v =
           let heap = Heap.create () in
           let a = Heap.alloc_object heap ~layout in
           Heap.set_field_cached heap (Heap.new_field_cache ()) a "v" (Value.Vint v);
           (heap, Value.Vref a)
         in
         let h1, r1 = mk x and h2, r2 = mk y in
         let eq =
           Snapshot.canonical h1 ~roots:[ r1 ] = Snapshot.canonical h2 ~roots:[ r2 ]
         in
         let hash h r = Hashtbl.hash (Snapshot.canonical h ~roots:[ r ]) in
         let heq = hash h1 r1 = hash h2 r2 in
         (eq = (x = y)) && (not eq || heq)))

let () =
  Alcotest.run "heap-qcheck"
    [ ("properties", [ monitor_prop; field_prop; array_prop; snapshot_hash_prop ]) ]
