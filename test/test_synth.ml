(* Test synthesis (§3.4, Algorithm 1): planning, object collection,
   sharing, and the structure of instantiated tests. *)

open Narada_core

let fig1_analysis () = Testlib.Fixtures.analyze Testlib.Fixtures.fig1

let find_test (an : Pipeline.analysis) ~qa ~qb =
  match
    List.find_opt
      (fun (t : Synth.test) ->
        let p = t.Synth.st_pair in
        (p.Pairs.p_a.Pairs.ep_qname = qa && p.Pairs.p_b.Pairs.ep_qname = qb)
        || (p.Pairs.p_a.Pairs.ep_qname = qb && p.Pairs.p_b.Pairs.ep_qname = qa))
      an.Pipeline.an_tests
  with
  | Some t -> t
  | None -> Alcotest.failf "no synthesized test for %s x %s" qa qb

let test_dedup_folds_pairs () =
  let an = fig1_analysis () in
  Alcotest.(check bool) "fewer tests than pairs" true
    (List.length an.Pipeline.an_tests <= List.length an.Pipeline.an_pairs);
  (* and keys are unique *)
  let keys = List.map Synth.dedup_key
      (List.map (fun (t : Synth.test) -> t.Synth.st_pair) an.Pipeline.an_tests) in
  Alcotest.(check int) "unique" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_instantiate_shares_counter () =
  (* The update×update test must leave both thread receivers' [c] fields
     pointing at the same Counter — the paper's context requirement. *)
  let an = fig1_analysis () in
  let t = find_test an ~qa:"Lib.update" ~qb:"Lib.update" in
  match (Pipeline.instantiator an t) () with
  | Error e -> Alcotest.fail e
  | Ok inst ->
    let m = inst.Detect.Racefuzzer.ri_machine in
    let tids = inst.Detect.Racefuzzer.ri_threads in
    Alcotest.(check int) "two racy threads" 2 (List.length tids);
    let recv_of tid =
      match Runtime.Machine.frames_of m tid with
      | f :: _ -> f.Runtime.Machine.regs.(0)
      | [] -> Alcotest.fail "no frame"
    in
    let r1 = recv_of (List.nth tids 0) and r2 = recv_of (List.nth tids 1) in
    Alcotest.(check bool) "receivers distinct" false (Runtime.Value.equal r1 r2);
    let c1 = Runtime.Machine.deref_path m r1 [ "c" ] in
    let c2 = Runtime.Machine.deref_path m r2 [ "c" ] in
    (match (c1, c2) with
    | Some (Runtime.Value.Vref a), Some (Runtime.Value.Vref b) ->
      Alcotest.(check int) "counters shared" a b
    | _ -> Alcotest.fail "c fields unset")

let test_instantiate_deterministic () =
  let an = fig1_analysis () in
  let t = find_test an ~qa:"Lib.update" ~qb:"Lib.update" in
  let inst = Pipeline.instantiator an t in
  let snap () =
    match inst () with
    | Error e -> Alcotest.fail e
    | Ok i ->
      Runtime.Snapshot.to_string
        (Runtime.Snapshot.canonical
           (Runtime.Machine.heap i.Detect.Racefuzzer.ri_machine)
           ~roots:i.Detect.Racefuzzer.ri_roots)
  in
  Alcotest.(check string) "identical initial states" (snap ()) (snap ())

let test_collection_threads_frozen () =
  (* After instantiation, only the two racy threads are runnable; the
     seed-replay threads are suspended forever. *)
  let an = fig1_analysis () in
  let t = find_test an ~qa:"Lib.update" ~qb:"Lib.update" in
  match (Pipeline.instantiator an t) () with
  | Error e -> Alcotest.fail e
  | Ok inst ->
    let m = inst.Detect.Racefuzzer.ri_machine in
    let runnable = Runtime.Machine.runnable_tids m in
    List.iter
      (fun tid ->
        Alcotest.(check bool) "runnable is a racy thread" true
          (List.mem tid inst.Detect.Racefuzzer.ri_threads))
      runnable

let test_share_owner_directly () =
  (* update×get: get's receiver must BE update's receiver's counter. *)
  let an = fig1_analysis () in
  let t = find_test an ~qa:"Lib.update" ~qb:"Counter.get" in
  match (Pipeline.instantiator an t) () with
  | Error e -> Alcotest.fail e
  | Ok inst ->
    let m = inst.Detect.Racefuzzer.ri_machine in
    let recvs =
      List.map
        (fun tid ->
          match Runtime.Machine.frames_of m tid with
          | f :: _ -> f.Runtime.Machine.regs.(0)
          | [] -> Runtime.Value.Vnull)
        inst.Detect.Racefuzzer.ri_threads
    in
    (* one receiver is a Lib, the other is that Lib's counter *)
    let heap = Runtime.Machine.heap m in
    let libs, counters =
      List.partition
        (fun v ->
          match Runtime.Value.addr_of v with
          | Some a -> Runtime.Heap.class_of heap a = Some "Lib"
          | None -> false)
        recvs
    in
    (match (libs, counters) with
    | [ lib ], [ counter ] -> (
      match Runtime.Machine.deref_path m lib [ "c" ] with
      | Some c -> Alcotest.(check bool) "lib.c == counter" true (Runtime.Value.equal c counter)
      | None -> Alcotest.fail "lib.c unset")
    | _ -> Alcotest.fail "expected one Lib and one Counter receiver")

let test_fig13_instantiation () =
  (* The foo×foo test on fig13: both receivers' x fields must alias. *)
  let an = Testlib.Fixtures.analyze Testlib.Fixtures.fig13 in
  let t = find_test an ~qa:"A.foo" ~qb:"A.foo" in
  match (Pipeline.instantiator an t) () with
  | Error e -> Alcotest.fail e
  | Ok inst ->
    let m = inst.Detect.Racefuzzer.ri_machine in
    let xs =
      List.map
        (fun tid ->
          match Runtime.Machine.frames_of m tid with
          | f :: _ -> Runtime.Machine.deref_path m f.Runtime.Machine.regs.(0) [ "x" ]
          | [] -> None)
        inst.Detect.Racefuzzer.ri_threads
    in
    match xs with
    | [ Some (Runtime.Value.Vref a); Some (Runtime.Value.Vref b) ] ->
      Alcotest.(check int) "x fields alias" a b
    | _ -> Alcotest.fail "x fields not resolved"

let test_to_source_mentions_methods () =
  let an = fig1_analysis () in
  let t = find_test an ~qa:"Lib.update" ~qb:"Lib.update" in
  let src = Synth.to_source t in
  let contains needle =
    let nh = String.length src and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub src i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "spawns update" true (contains "spawn ownerA.update");
  Alcotest.(check bool) "mentions field" true (contains ".count")

let test_roots_nonempty () =
  let an = fig1_analysis () in
  List.iter
    (fun (t : Synth.test) ->
      match (Pipeline.instantiator an t) () with
      | Ok inst ->
        Alcotest.(check bool) "roots present" true
          (inst.Detect.Racefuzzer.ri_roots <> [])
      | Error _ -> ())
    an.Pipeline.an_tests

(* ---- references: older versions of library code ---- *)

(* [Runtime.Interp.run_until_call] as it was before it decoded the
   instruction first: it checks the caller and resolves the pending call
   on every step.  Kept verbatim (bar module paths and the entry
   lookup) as the reference the decode-first loop must agree with. *)
module Reference = struct
  module Machine = Runtime.Machine
  module Code = Jir.Code

  let run_until_call ?(fuel = Machine.default_fuel) (m : Machine.t) ~cls ~meth
      ~target_qname ~nth : Runtime.Interp.captured option =
    let cu = Machine.unit_of m in
    let cm =
      match Code.find_static cu cls meth with
      | Some cm -> cm
      | None -> Alcotest.failf "no static entry point %s.%s" cls meth
    in
    let tid = Machine.new_thread m ~cm ~recv:None ~args:[] () in
    let th = Machine.find_thread m tid in
    let count = ref 0 in
    let rec loop n =
      if n <= 0 then None
      else
        let is_client_caller =
          match Machine.top_frame_th th with
          | Some f -> Machine.is_client_frame m f
          | None -> true
        in
        match Machine.pending_call_th m th with
        | Some (target, recv, args)
          when is_client_caller
               && String.equal target.Code.cm_qname target_qname ->
          if !count = nth then
            Some
              {
                Runtime.Interp.cap_meth = target;
                cap_recv = recv;
                cap_args = args;
                cap_tid = tid;
              }
          else (
            incr count;
            step_and_continue n)
        | Some _ | None -> step_and_continue n
    and step_and_continue n =
      match Machine.step_th m th with
      | Machine.Stepped -> (
        match Machine.status_th th with
        | Machine.Finished _ | Machine.Crashed _ | Machine.Suspended -> None
        | Machine.Runnable | Machine.Blocked_lock _ | Machine.Blocked_join _ ->
          loop (n - 1))
      | Machine.Blocked | Machine.Not_runnable -> None
    in
    loop fuel

  (* [Synth.instantiate] as it was before endpoint A's replay was
     shared: both endpoints' seed replays run one after the other on one
     fresh machine.  Kept verbatim, with the helpers it calls (bar the
     [test] type's module path), as the reference every template a
     staged [Synth.instantiator] builds must agree with. *)
  let ( let* ) = Result.bind

  let capture m ~(t : Synth.test) ~(e : Pairs.endpoint) :
      (Runtime.Interp.captured, string) result =
    match
      Runtime.Interp.run_until_call m ~cls:t.st_seed_cls ~meth:t.st_seed_meth
        ~target_qname:e.Pairs.ep_qname ~nth:e.Pairs.ep_occurrence
    with
    | Some c ->
      Runtime.Machine.suspend m c.Runtime.Interp.cap_tid;
      Ok c
    | None ->
      Error
        (Printf.sprintf "seed replay never reached %s (occurrence %d)"
           e.Pairs.ep_qname e.Pairs.ep_occurrence)

  (* Replay the seed to observe an invocation of [qname]; returns the
     receiver and arguments about to be passed. *)
  let harvest_invocation m ~(t : Synth.test) ~qname :
      (Runtime.Value.t option * Runtime.Value.t list, string) result =
    match
      Runtime.Interp.run_until_call m ~cls:t.st_seed_cls ~meth:t.st_seed_meth
        ~target_qname:qname ~nth:0
    with
    | Some c ->
      Runtime.Machine.suspend m c.Runtime.Interp.cap_tid;
      Ok (c.Runtime.Interp.cap_recv, c.Runtime.Interp.cap_args)
    | None -> Error (Printf.sprintf "seed replay never invokes %s" qname)

  let root_value (cap : Runtime.Interp.captured) (root : Sym.root) :
      (Runtime.Value.t, string) result =
    match root with
    | Sym.Recv -> (
      match cap.Runtime.Interp.cap_recv with
      | Some v -> Ok v
      | None -> Error "endpoint is static but owner path is receiver-rooted")
    | Sym.Arg j -> (
      match List.nth_opt cap.Runtime.Interp.cap_args (j - 1) with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "endpoint has no argument %d" j))
    | Sym.Ret -> Error "owner path cannot be return-rooted"

  let replace_nth l n v = List.mapi (fun i x -> if i = n then v else x) l

  (* Invoke [meth_name] on [recv] with [args] synchronously (a context
     call of Algorithm 1, lines 6–7). *)
  let invoke m ~(recv : Runtime.Value.t) ~meth_name ~args :
      (Runtime.Value.t option, string) result =
    let cu = Runtime.Machine.unit_of m in
    match Runtime.Value.addr_of recv with
    | None -> Error "context call on a non-object"
    | Some a -> (
      match Runtime.Heap.class_of (Runtime.Machine.heap m) a with
      | None -> Error "context call on an array"
      | Some cls -> (
        match Jir.Code.find_virtual cu cls meth_name with
        | None -> Error (Printf.sprintf "class %s has no method %s" cls meth_name)
        | Some cm ->
          Runtime.Machine.call m ~cm ~recv:(Some recv) ~args ()))

  let invoke_static m ~cls ~meth_name ~args =
    let cu = Runtime.Machine.unit_of m in
    match Jir.Code.find_static cu cls meth_name with
    | None -> Error (Printf.sprintf "no static method %s.%s" cls meth_name)
    | Some cm -> Runtime.Machine.call m ~cm ~recv:None ~args ()

  (* Apply a context recipe: make [owner]'s recipe-target path point at
     [shared]; returns the (possibly replaced) owner. *)
  let rec apply_recipe m ~(t : Synth.test) ~(recipe : Context.recipe)
      ~(owner : Runtime.Value.t) ~(shared : Runtime.Value.t) :
      (Runtime.Value.t, string) result =
    match recipe with
    | Context.Share_owner -> Ok shared
    | Context.Apply { setter; payload } ->
      let* payload_v = payload_value m ~t ~payload ~shared in
      let rhs_pos =
        match setter.Summary.set_rhs.Sym.root with Sym.Arg j -> j | Sym.Recv | Sym.Ret -> 1
      in
      (* Observe how the seed invoked this setter to borrow realistic
         values for the other parameters. *)
      let* obs_recv, obs_args = harvest_invocation m ~t ~qname:setter.Summary.set_qname in
      let args = replace_nth obs_args (rhs_pos - 1) payload_v in
      (match setter.Summary.set_lhs.Sym.root with
      | Sym.Recv when Summary.is_ctor setter ->
        (* Rebuild the owner with chosen constructor arguments (the
           paper's Fig. 3: two fresh wrappers around one shared queue). *)
        Runtime.Machine.construct m ~cls:setter.Summary.set_cls ~args ()
      | Sym.Recv ->
        let* _ = invoke m ~recv:owner ~meth_name:setter.Summary.set_meth ~args in
        Ok owner
      | Sym.Ret ->
        (* Factory: the produced object replaces the owner. *)
        let* res =
          if setter.Summary.set_static then
            invoke_static m ~cls:setter.Summary.set_cls
              ~meth_name:setter.Summary.set_meth ~args
          else
            let* recv =
              match obs_recv with
              | Some r -> Ok r
              | None -> Error "factory needs a receiver"
            in
            invoke m ~recv ~meth_name:setter.Summary.set_meth ~args
        in
        (match res with
        | Some v -> Ok v
        | None -> Error "factory returned no value")
      | Sym.Arg i ->
        (* The setter assigns a field of its i-th parameter: pass the
           owner there. *)
        let args = replace_nth args (i - 1) owner in
        let* _ =
          match obs_recv with
          | Some r -> invoke m ~recv:r ~meth_name:setter.Summary.set_meth ~args
          | None ->
            invoke_static m ~cls:setter.Summary.set_cls
              ~meth_name:setter.Summary.set_meth ~args
        in
        Ok owner)

  and payload_value m ~t ~(payload : Context.payload) ~shared :
      (Runtime.Value.t, string) result =
    match payload with
    | Context.Shared -> Ok shared
    | Context.Prepared { recipe; _ } -> (
      match recipe with
      | Context.Share_owner -> Ok shared
      | Context.Apply { setter; _ } ->
        (* Harvest a suitable payload instance: the object the seed used
           as the sub-setter's owner. *)
        let* obs_recv, obs_args = harvest_invocation m ~t ~qname:setter.Summary.set_qname in
        let* base =
          match setter.Summary.set_lhs.Sym.root with
          | Sym.Recv | Sym.Ret -> (
            match obs_recv with
            | Some r -> Ok r
            | None -> Error "no observed receiver for payload harvesting")
          | Sym.Arg i -> (
            match List.nth_opt obs_args (i - 1) with
            | Some v -> Ok v
            | None -> Error "no observed argument for payload harvesting")
        in
        apply_recipe m ~t ~recipe ~owner:base ~shared)

  (* ------------------------------------------------------------------ *)
  (* Putting it together                                                 *)
  (* ------------------------------------------------------------------ *)

  type side = {
    sd_endpoint : Pairs.endpoint;
    sd_recv : Runtime.Value.t option;
    sd_args : Runtime.Value.t list;
  }

  let side_with_owner (e : Pairs.endpoint) (cap : Runtime.Interp.captured)
      (new_owner : Runtime.Value.t option) : side =
    let recv = cap.Runtime.Interp.cap_recv and args = cap.Runtime.Interp.cap_args in
    match (new_owner, e.Pairs.ep_owner_path.Sym.root) with
    | None, _ -> { sd_endpoint = e; sd_recv = recv; sd_args = args }
    | Some v, Sym.Recv -> { sd_endpoint = e; sd_recv = Some v; sd_args = args }
    | Some v, Sym.Arg j ->
      { sd_endpoint = e; sd_recv = recv; sd_args = replace_nth args (j - 1) v }
    | Some _, Sym.Ret -> { sd_endpoint = e; sd_recv = recv; sd_args = args }

  let spawn_side m (s : side) : (Runtime.Value.tid, string) result =
    let cu = Runtime.Machine.unit_of m in
    match s.sd_recv with
    | Some recv -> (
      match Runtime.Value.addr_of recv with
      | None -> Error "racy thread receiver is not an object"
      | Some a -> (
        match Runtime.Heap.class_of (Runtime.Machine.heap m) a with
        | None -> Error "racy thread receiver is an array"
        | Some cls -> (
          let mname = s.sd_endpoint.Pairs.ep_meth in
          match
            if String.equal mname Jir.Ast.ctor_name then None
            else Jir.Code.find_virtual cu cls mname
          with
          | Some cm ->
            Ok
              (Runtime.Machine.new_thread m ~cm ~recv:(Some recv)
                 ~args:s.sd_args ())
          | None -> Error (Printf.sprintf "cannot spawn %s on %s" mname cls))))
    | None -> (
      match
        Jir.Code.find_static cu s.sd_endpoint.Pairs.ep_cls
          s.sd_endpoint.Pairs.ep_meth
      with
      | Some cm ->
        Ok (Runtime.Machine.new_thread m ~cm ~recv:None ~args:s.sd_args ())
      | None -> Error "cannot resolve static racy method")

  (* The effective sharing plan of one side. *)
  let effective_recipe (p : Context.plan) ~(path : string list) :
      (string list * Context.recipe) option =
    match p.Context.plan_recipe with
    | Some r -> Some (path, r)
    | None -> p.Context.plan_prefix

  let instantiate ?(apply_context = true) (cu : Jir.Code.unit_) ~client_classes
      (t : Synth.test) : (Detect.Racefuzzer.instance, string) result =
    let m = Runtime.Machine.create ~client_classes cu in
    let ea = t.st_pair.Pairs.p_a and eb = t.st_pair.Pairs.p_b in
    (* 1. collectObjects: one independent seed replay per endpoint. *)
    let* cap_a = capture m ~t ~e:ea in
    let* cap_b = capture m ~t ~e:eb in
    let* root_a = root_value cap_a ea.Pairs.ep_owner_path.Sym.root in
    let* root_b = root_value cap_b eb.Pairs.ep_owner_path.Sym.root in
    (* 2. shareObjects + context calls. *)
    let path_a = ea.Pairs.ep_owner_path.Sym.fields in
    let path_b = eb.Pairs.ep_owner_path.Sym.fields in
    let* new_a, new_b =
      if not apply_context then
        (* Ablation: skip shareObjects entirely — the threads run on the
           independently collected objects, as blind testing would. *)
        Ok (None, None)
      else if path_a = [] && path_b = [] then
        (* Owners are the roots themselves: share them directly. *)
        Ok (None, Some root_a)
      else begin
        match
          (effective_recipe t.st_plan_a ~path:path_a, effective_recipe t.st_plan_b ~path:path_b)
        with
        | Some (pa, ra), Some (pb, rb) -> (
          (* Shared object: what endpoint A's (possibly prefixed) path
             already points to after the seed replay; harvest via the
             recipes only if absent. *)
          match Runtime.Machine.deref_path m root_a pa with
          | Some (Runtime.Value.Vref sa) ->
            let shared = Runtime.Value.Vref sa in
            if pb = [] then Ok (None, Some shared)
            else
              let* nb = apply_recipe m ~t ~recipe:rb ~owner:root_b ~shared in
              Ok (None, Some nb)
          | Some _ | None -> (
            (* A's path is unset: drive both sides to a harvested shared
               object. *)
            match Runtime.Machine.deref_path m root_b pb with
            | Some (Runtime.Value.Vref sb) ->
              let shared = Runtime.Value.Vref sb in
              let* na = apply_recipe m ~t ~recipe:ra ~owner:root_a ~shared in
              Ok (Some na, None)
            | Some _ | None -> Error "cannot locate a shared object for the context"))
        | Some (pa, _), None -> (
          match Runtime.Machine.deref_path m root_a pa with
          | Some (Runtime.Value.Vref _ as shared) when path_b = [] ->
            Ok (None, Some shared)
          | Some _ | None -> Error "no context recipe for endpoint B")
        | None, Some (pb, rb) -> (
          if path_a = [] then
            let* nb = apply_recipe m ~t ~recipe:rb ~owner:root_b ~shared:root_a in
            Ok (None, Some nb)
          else
            match Runtime.Machine.deref_path m root_b pb with
            | Some (Runtime.Value.Vref _) -> Error "no context recipe for endpoint A"
            | Some _ | None -> Error "no usable context")
        | None, None ->
          (* No derivable context at all: run without sharing (the test
             may expose nothing, as in Fig. 14's zero-race bars). *)
          Ok (None, None)
      end
    in
    let side_a = side_with_owner ea cap_a new_a in
    let side_b = side_with_owner eb cap_b new_b in
    (* 3. spawn the racy threads (not yet scheduled). *)
    let* tid_a = spawn_side m side_a in
    let* tid_b = spawn_side m side_b in
    let roots =
      List.filter_map Fun.id [ side_a.sd_recv; side_b.sd_recv ]
      @ side_a.sd_args @ side_b.sd_args
    in
    Ok
      {
        Detect.Racefuzzer.ri_machine = m;
        ri_threads = [ tid_a; tid_b ];
        ri_roots = roots;
      }
end

(* ---- seed replay: decoding first = resolving every step ---- *)

(* A program whose seed test [seed_cls.seed_meth] is replayed. *)
type replayed = {
  rp_name : string;
  rp_cu : Jir.Code.unit_;
  rp_client : string list;
  rp_seed_cls : string;
  rp_seed_meth : string;
}

let corpus_replayed () =
  List.map
    (fun (e : Corpus.Corpus_def.entry) ->
      let cls = e.Corpus.Corpus_def.e_seed_cls in
      {
        rp_name = e.Corpus.Corpus_def.e_id;
        rp_cu = Corpus.Registry.compiled_unit e;
        rp_client = [ cls ];
        rp_seed_cls = cls;
        rp_seed_meth = e.Corpus.Corpus_def.e_seed_meth;
      })
    (Corpus.Registry.all @ Corpus.Registry.extras)

(* The patched program of each candidate repair tries on C3. *)
let c3_candidates () =
  let e = match Corpus.Registry.find "C3" with Some e -> e | None -> Alcotest.fail "no C3" in
  let cls = e.Corpus.Corpus_def.e_seed_cls in
  let sub =
    Repair.Engine.subject_of_unit (Corpus.Registry.compiled_unit e) ~client_classes:[ cls ]
      ~seed_cls:cls ~seed_meth:e.Corpus.Corpus_def.e_seed_meth
  in
  let rp = match Repair.Engine.repair_all sub with Ok rp -> rp | Error msg -> Alcotest.fail msg in
  List.concat_map
    (fun (rr : Repair.Engine.race_repair) ->
      List.map (fun a -> a.Repair.Engine.at_cand) rr.Repair.Engine.rr_attempts)
    rp.Repair.Engine.rp_races
  |> List.mapi (fun i c ->
         match Repair.Grammar.apply sub.Repair.Engine.sj_prog c with
         | Error msg -> Alcotest.failf "C3 candidate %d: %s" i msg
         | Ok prog ->
           {
             rp_name = Printf.sprintf "C3 candidate %d" i;
             rp_cu = Jir.Compile.compile_unit prog;
             rp_client = [ cls ];
             rp_seed_cls = cls;
             rp_seed_meth = e.Corpus.Corpus_def.e_seed_meth;
           })

let generated_replayed n =
  List.init n (fun i ->
      {
        rp_name = Printf.sprintf "Gen seed %d" i;
        rp_cu = Jir.Compile.compile_unit (Fuzz.Gen.generate ~seed:(Int64.of_int i));
        rp_client = [ Fuzz.Gen.seed_cls ];
        rp_seed_cls = Fuzz.Gen.seed_cls;
        rp_seed_meth = Fuzz.Gen.seed_meth;
      })

(* The qnames a context recipe harvests an invocation of. *)
let rec recipe_setters = function
  | Context.Share_owner -> []
  | Context.Apply { setter; payload } -> (
    setter.Summary.set_qname
    ::
    (match payload with
    | Context.Shared -> []
    | Context.Prepared { recipe; _ } -> recipe_setters recipe))

let plan_setters (p : Context.plan) =
  (match p.Context.plan_recipe with Some r -> recipe_setters r | None -> [])
  @ match p.Context.plan_prefix with Some (_, r) -> recipe_setters r | None -> []

let method_qnames (cu : Jir.Code.unit_) =
  Hashtbl.fold
    (fun _ (c : Jir.Code.cls) acc ->
      let qname (_, (cm : Jir.Code.meth)) = cm.Jir.Code.cm_qname in
      List.map qname c.Jir.Code.cc_ctors
      @ List.map qname (c.Jir.Code.cc_methods @ c.Jir.Code.cc_static_methods)
      @ acc)
    cu.Jir.Code.cu_classes []
  |> List.sort_uniq String.compare

(* The replays of one program, each a sequence of (qname, occurrence)
   run one after another on one machine as [Synth.instantiate] does:
   per synthesized test its endpoints at their occurrences, every setter
   its recipes harvest, a target no call reaches (a known method name on
   no class) and endpoint A past its last occurrence; then every method
   of the program at occurrences 0 and 1. *)
let replays (p : replayed) =
  let tests =
    match
      Pipeline.analyze p.rp_cu ~client_classes:p.rp_client ~seed_cls:p.rp_seed_cls
        ~seed_meth:p.rp_seed_meth
    with
    | Ok an -> an.Pipeline.an_tests
    | Error _ -> [] (* a crashing seed: its methods are still replayed *)
  in
  let of_test (t : Synth.test) =
    let a = t.Synth.st_pair.Pairs.p_a and b = t.Synth.st_pair.Pairs.p_b in
    [ (a.Pairs.ep_qname, a.Pairs.ep_occurrence); (b.Pairs.ep_qname, b.Pairs.ep_occurrence) ]
    @ List.map (fun q -> (q, 0)) (plan_setters t.Synth.st_plan_a @ plan_setters t.Synth.st_plan_b)
    @ [ ("Nowhere." ^ a.Pairs.ep_meth, 0); (a.Pairs.ep_qname, 1_000_000) ]
  in
  let qs = method_qnames p.rp_cu in
  List.map of_test tests @ [ List.map (fun q -> (q, 0)) qs; List.map (fun q -> (q, 1)) qs ]

(* Everything one replay decides: the capture (target, receiver,
   arguments, thread), then the labels consumed and where the replay
   thread stopped. *)
let replay_outcome m (cap : Runtime.Interp.captured option) =
  let pc =
    (* The replay's thread is the machine's newest. *)
    match List.rev (Runtime.Machine.all_threads m) with
    | th :: _ -> (
      match Runtime.Machine.top_frame_th th with
      | Some f -> string_of_int f.Runtime.Machine.pc
      | None -> "-")
    | [] -> Alcotest.fail "no replay thread"
  in
  let cap =
    match cap with
    | None -> "None"
    | Some c ->
      Printf.sprintf "%s recv=%s args=[%s] tid=%d" c.Runtime.Interp.cap_meth.Jir.Code.cm_qname
        (match c.Runtime.Interp.cap_recv with Some v -> Runtime.Value.to_string v | None -> "-")
        (String.concat "," (List.map Runtime.Value.to_string c.Runtime.Interp.cap_args))
        c.Runtime.Interp.cap_tid
  in
  Printf.sprintf "%s labels=%d pc=%s" cap (Runtime.Machine.labels_used m) pc

(* Every replay of [p] under both loops: (replay, outcome, reference
   outcome, captured). *)
let replay_both (p : replayed) =
  List.concat_map
    (fun seq ->
      let run until_call =
        let m = Runtime.Machine.create ~client_classes:p.rp_client p.rp_cu in
        List.map
          (fun (target_qname, nth) ->
            let cap = until_call m ~cls:p.rp_seed_cls ~meth:p.rp_seed_meth ~target_qname ~nth in
            let out = replay_outcome m cap in
            Option.iter (fun c -> Runtime.Machine.suspend m c.Runtime.Interp.cap_tid) cap;
            (Printf.sprintf "%s %s#%d" p.rp_name target_qname nth, out, cap <> None))
          seq
      in
      List.map2
        (fun (what, got, captured) (_, want, _) -> (what, got, want, captured))
        (run (Runtime.Interp.run_until_call ?fuel:None))
        (run (Reference.run_until_call ?fuel:None)))
    (replays p)

let check_replays what ~programs ~replays ~captures progs =
  Alcotest.(check int) (what ^ ": programs") programs (List.length progs);
  let all = List.concat_map replay_both progs in
  Alcotest.(check (list string))
    (what ^ ": differences") []
    (List.filter_map
       (fun (r, got, want, _) ->
         if String.equal got want then None
         else Some (Printf.sprintf "%s: %s, reference %s" r got want))
       all);
  Alcotest.(check int) (what ^ ": replays") replays (List.length all);
  Alcotest.(check int) (what ^ ": captures") captures
    (List.length (List.filter (fun (_, _, _, captured) -> captured) all))

let test_replay_corpus () =
  check_replays "C1-C9, X1-X3" ~programs:12 ~replays:3191 ~captures:1720 (corpus_replayed ())

let test_replay_c3_candidates () =
  check_replays "C3 candidates" ~programs:17 ~replays:1636 ~captures:815 (c3_candidates ())

let test_replay_generated () =
  check_replays "generated" ~programs:200 ~replays:6342 ~captures:1999 (generated_replayed 200)

(* The second [poke] has a null receiver, so resolving it crashes: the
   one capture is the first [poke], and at occurrence 1 both loops stop
   where the step crashes. *)
let null_receiver_src =
  "class Lib { int v; void poke() { this.v = this.v + 1; } } \
   class Seed { static void main() { Lib a = new Lib(); a.poke(); \
   Lib b = null; b.poke(); } }"

let test_replay_null_receiver () =
  check_replays "null receiver" ~programs:1 ~replays:4 ~captures:1
    [
      {
        rp_name = "null receiver";
        rp_cu = Jir.Compile.compile_source null_receiver_src;
        rp_client = [ "Seed" ];
        rp_seed_cls = "Seed";
        rp_seed_meth = "main";
      };
    ]

(* ---- shared replays: a staged instantiator = the two-replay builder ---- *)

(* Everything a template decides: the heap from its roots, its racy
   threads, the labels used and the output, then one seeded run's
   outcome, steps and crashes; or the build's error. *)
let template_outcome = function
  | Error e -> "Error " ^ e
  | Ok (inst : Detect.Racefuzzer.instance) ->
    let m = inst.Detect.Racefuzzer.ri_machine in
    let heap =
      Runtime.Snapshot.to_string
        (Runtime.Snapshot.canonical (Runtime.Machine.heap m)
           ~roots:inst.Detect.Racefuzzer.ri_roots)
    in
    let threads = inst.Detect.Racefuzzer.ri_threads in
    let labels = Runtime.Machine.labels_used m and out = Runtime.Machine.output m in
    let r = Conc.Exec.run m (Conc.Scheduler.random ~seed:7L) in
    Printf.sprintf "heap=%s threads=[%s] labels=%d out=%S | %s steps=%d crashes=%d then out=%S"
      heap
      (String.concat "," (List.map string_of_int threads))
      labels out
      (match r.Conc.Exec.outcome with
      | Conc.Exec.All_finished -> "finished"
      | Conc.Exec.Deadlock tids ->
        "deadlock " ^ String.concat "," (List.map string_of_int tids)
      | Conc.Exec.Fuel_exhausted -> "fuel")
      r.Conc.Exec.steps
      (List.length r.Conc.Exec.crashes)
      (Runtime.Machine.output m)

type shared_counts = {
  sc_analyses : int;
  sc_templates : int;  (** per order *)
  sc_errors : int;
  sc_replays : int;  (** distinct endpoint-A replays, per order *)
}

let seed_replays () =
  Option.value ~default:0.0
    (List.assoc_opt "synth/seed_replays" (Obs.Metrics.gauges (Obs.Metrics.global ())))

(* For each program's analysis, one staged instantiator applied to its
   tests in plan order and a second one in reverse order: every template
   must match the reference's, and each order must replay each distinct
   endpoint A exactly once. *)
let check_shared what (want : shared_counts) progs =
  let analyses =
    List.filter_map
      (fun p ->
        match
          Pipeline.analyze p.rp_cu ~client_classes:p.rp_client ~seed_cls:p.rp_seed_cls
            ~seed_meth:p.rp_seed_meth
        with
        | Ok an -> Some (p, an)
        | Error _ -> None)
      progs
  in
  let templates = ref 0 and errors = ref 0 and replays = ref 0 in
  let differences =
    List.concat_map
      (fun (p, (an : Pipeline.analysis)) ->
        let tests = an.Pipeline.an_tests in
        let reference =
          List.map
            (fun t ->
              template_outcome
                (Reference.instantiate an.Pipeline.an_cu
                   ~client_classes:an.Pipeline.an_client_classes t))
            tests
        in
        let keys =
          List.sort_uniq compare
            (List.map
               (fun (t : Synth.test) ->
                 let a = t.Synth.st_pair.Pairs.p_a in
                 (a.Pairs.ep_qname, a.Pairs.ep_occurrence))
               tests)
        in
        templates := !templates + List.length tests;
        replays := !replays + List.length keys;
        errors :=
          !errors
          + List.length (List.filter (String.starts_with ~prefix:"Error ") reference);
        let pass order =
          let staged = Pipeline.instantiator an in
          let before = seed_replays () in
          let paired = List.combine tests reference in
          let ordered = if order = "reverse" then List.rev paired else paired in
          let diffs =
            List.filter_map
              (fun ((t : Synth.test), want) ->
                let got = template_outcome ((staged t) ()) in
                if String.equal got want then None
                else
                  Some
                    (Printf.sprintf "%s test #%d (%s order): %s, reference %s" p.rp_name
                       t.Synth.st_id order got want))
              ordered
          in
          let replayed = int_of_float (seed_replays () -. before) in
          if replayed = List.length keys then diffs
          else
            Printf.sprintf "%s (%s order): %d endpoint-A replays for %d distinct keys"
              p.rp_name order replayed (List.length keys)
            :: diffs
        in
        pass "plan" @ pass "reverse")
      analyses
  in
  Alcotest.(check (list string)) (what ^ ": differences") [] differences;
  Alcotest.(check int) (what ^ ": analyses") want.sc_analyses (List.length analyses);
  Alcotest.(check int) (what ^ ": templates") want.sc_templates !templates;
  Alcotest.(check int) (what ^ ": errors") want.sc_errors !errors;
  Alcotest.(check int) (what ^ ": replays") want.sc_replays !replays

let test_shared_corpus () =
  check_shared "C1-C9, X1-X3"
    { sc_analyses = 12; sc_templates = 581; sc_errors = 1; sc_replays = 103 }
    (corpus_replayed ())

let test_shared_c3_candidates () =
  check_shared "C3 candidates"
    { sc_analyses = 17; sc_templates = 297; sc_errors = 17; sc_replays = 72 }
    (c3_candidates ())

let test_shared_generated () =
  check_shared "generated"
    { sc_analyses = 200; sc_templates = 571; sc_errors = 4; sc_replays = 264 }
    (generated_replayed 200)

let () =
  Alcotest.run "synth"
    [
      ( "planning",
        [ Alcotest.test_case "dedup" `Quick test_dedup_folds_pairs ] );
      ( "instantiation",
        [
          Alcotest.test_case "counter shared (fig1)" `Quick
            test_instantiate_shares_counter;
          Alcotest.test_case "deterministic" `Quick test_instantiate_deterministic;
          Alcotest.test_case "collectors frozen" `Quick
            test_collection_threads_frozen;
          Alcotest.test_case "share owner (update x get)" `Quick
            test_share_owner_directly;
          Alcotest.test_case "fig13 context applied" `Quick test_fig13_instantiation;
          Alcotest.test_case "roots" `Quick test_roots_nonempty;
        ] );
      ( "seed replay",
        [
          Alcotest.test_case "C1-C9, X1-X3 = reference" `Quick test_replay_corpus;
          Alcotest.test_case "C3 repair candidates = reference" `Quick test_replay_c3_candidates;
          Alcotest.test_case "200 generated programs = reference" `Quick test_replay_generated;
          Alcotest.test_case "null receiver = reference" `Quick test_replay_null_receiver;
        ] );
      ( "shared replays",
        [
          Alcotest.test_case "C1-C9, X1-X3 = reference" `Quick test_shared_corpus;
          Alcotest.test_case "C3 repair candidates = reference" `Quick test_shared_c3_candidates;
          Alcotest.test_case "200 generated programs = reference" `Quick test_shared_generated;
        ] );
      ( "rendering",
        [ Alcotest.test_case "to_source" `Quick test_to_source_mentions_methods ] );
    ]
