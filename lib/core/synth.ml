(* Test synthesis (§3.4, Algorithm 1).

   A synthesized test for a racy pair:

   1. collectObjects — replay the sequential seed test on a fresh
      machine, suspending just before the client-level invocations of
      interest, and capture the receiver/argument references about to be
      passed (one independent replay per endpoint, so receivers are
      distinct unless sharing is explicitly required);
   2. shareObjects — make the owners of the racy field alias: either
      share the owner objects directly (empty owner path), or execute
      the derived context recipe (setter sequences, reconstructed
      receivers, factory calls) so both owner paths reach one shared
      object;
   3. spawn two threads invoking the racy methods concurrently.

   [instantiate] performs 1–2 and returns the machine with the two racy
   threads created but not yet stepped; schedulers and detectors take it
   from there. *)

type test = {
  st_id : int;
  st_pair : Pairs.pair;
  st_plan_a : Context.plan;
  st_plan_b : Context.plan;
  st_seed_cls : Jir.Ast.id; (* client class whose static method is the seed *)
  st_seed_meth : Jir.Ast.id;
}

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)
(* ------------------------------------------------------------------ *)

let dedup_key (p : Pairs.pair) =
  (* One test per unordered method pair and racy field: several racy
     labels of the same field within a method share one test (§5). *)
  let a = p.Pairs.p_a.Pairs.ep_qname and b = p.Pairs.p_b.Pairs.ep_qname in
  let lo, hi = if a <= b then (a, b) else (b, a) in
  (lo, hi, p.Pairs.p_field)

(* One test per (method pair, owner paths, field): several racy labels
   of the same field within a method fold into one test, which is why
   the paper synthesizes 101 tests for 466 pairs. *)
let plan (prog : Jir.Program.t) (summary : Summary.t) ~seed_cls ~seed_meth
    (pairs : Pairs.pair list) : test list =
  let seen = Hashtbl.create 32 in
  let id = ref 0 in
  List.filter_map
    (fun (p : Pairs.pair) ->
      let k = dedup_key p in
      if Hashtbl.mem seen k then None
      else begin
        Hashtbl.replace seen k ();
        let plan_of (e : Pairs.endpoint) =
          (* The recipe drives the *root* object (receiver/argument the
             test controls); the racy owner sits at the end of the path. *)
          Obs.Span.with_ "context" (fun () ->
              Context.plan_for prog summary ~owner_cls:e.Pairs.ep_root_cls
                ~path:e.Pairs.ep_owner_path.Sym.fields)
        in
        let t =
          {
            st_id = !id;
            st_pair = p;
            st_plan_a = plan_of p.Pairs.p_a;
            st_plan_b = plan_of p.Pairs.p_b;
            st_seed_cls = seed_cls;
            st_seed_meth = seed_meth;
          }
        in
        incr id;
        Some t
      end)
    pairs

(* ------------------------------------------------------------------ *)
(* Instantiation                                                       *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let capture m ~(t : test) ~(e : Pairs.endpoint) :
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
let harvest_invocation m ~(t : test) ~qname :
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
let rec apply_recipe m ~(t : test) ~(recipe : Context.recipe)
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

(* collectObjects for endpoint A: a fresh machine whose seed replay is
   suspended before A's invocation. *)
let replay_a cu ~client_classes (t : test) :
    (Runtime.Machine.t * Runtime.Interp.captured, string) result =
  let m = Runtime.Machine.create ~client_classes cu in
  let* cap = capture m ~t ~e:t.st_pair.Pairs.p_a in
  Ok (m, cap)

(* Endpoint A's replay depends only on the seed and on A's qname and
   occurrence, and many tests of one program share those, so one replay
   per key is memoized and every test gets its own copy of the machine
   (the memoized one is never stepped) with the capture, whose values
   are addresses the copy keeps.  An [Error] is memoized too; an
   exception is not, so every call raises as a fresh replay would. *)
let seed_replays cu ~client_classes =
  let memo = Hashtbl.create 16 in
  let lock = Mutex.create () in
  fun (t : test) ->
    let ea = t.st_pair.Pairs.p_a in
    let key = (t.st_seed_cls, t.st_seed_meth, ea.Pairs.ep_qname, ea.Pairs.ep_occurrence) in
    let replayed =
      Mutex.protect lock (fun () ->
          match Hashtbl.find_opt memo key with
          | Some r -> r
          | None ->
            let r = replay_a cu ~client_classes t in
            (* Volatile, like ["synth/templates"]: it counts the replays
               the builds that ran needed. *)
            Obs.Metrics.gauge_add (Obs.Metrics.global ()) "synth/seed_replays" 1.0;
            Hashtbl.replace memo key r;
            r)
    in
    Result.map (fun (m, cap) -> (Runtime.Machine.copy m, cap)) replayed

let build ~apply_context ~replay_a (t : test) :
    (Detect.Racefuzzer.instance, string) result =
  let ea = t.st_pair.Pairs.p_a and eb = t.st_pair.Pairs.p_b in
  (* 1. collectObjects: one independent seed replay per endpoint, B's
     on (a copy of) the machine A's replay left. *)
  let* m, cap_a = replay_a t in
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

let instantiate ?(apply_context = true) (cu : Jir.Code.unit_) ~client_classes
    (t : test) : (Detect.Racefuzzer.instance, string) result =
  build ~apply_context ~replay_a:(replay_a cu ~client_classes) t

(* Staged: applied to a program, it allocates the endpoint-A replay
   memo its tests share.  Instantiate once, copy many: applied to a
   test, the seed replays and context calls run on the first call only,
   and every call gets its own copy of that template machine; the
   template itself is never handed out, so it is never stepped.  The
   mutex makes first calls racing on several domains build it once.  An
   [Error] is memoized too; an exception is not, so every call raises
   as a fresh build would. *)
let instantiator cu ~client_classes : test -> Detect.Racefuzzer.instantiator =
  let replay_a = seed_replays cu ~client_classes in
  fun t ->
    let built = ref None in
    let lock = Mutex.create () in
    let template () =
      Mutex.protect lock (fun () ->
          match !built with
          | Some r -> r
          | None ->
            let r = build ~apply_context:true ~replay_a t in
            (* A volatile gauge: how many templates a campaign builds
               depends on how far its loops ran before an early exit. *)
            Obs.Metrics.gauge_add (Obs.Metrics.global ()) "synth/templates" 1.0;
            built := Some r;
            r)
    in
    fun () ->
      Result.map
        (fun (inst : Detect.Racefuzzer.instance) ->
          {
            inst with
            Detect.Racefuzzer.ri_machine =
              Runtime.Machine.copy inst.Detect.Racefuzzer.ri_machine;
          })
        (template ())

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let rec render_recipe buf indent (r : Context.recipe) ~owner ~shared =
  match r with
  | Context.Share_owner ->
    Buffer.add_string buf
      (Printf.sprintf "%s%s = %s; // share the owner directly\n" indent owner shared)
  | Context.Apply { setter; payload } ->
    let pay =
      match payload with
      | Context.Shared -> shared
      | Context.Prepared _ -> "prepared"
    in
    (match payload with
    | Context.Prepared { recipe; cls } ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s prepared = <collected %s instance>;\n" indent
           (Option.value ~default:"Object" cls)
           (Option.value ~default:"payload" cls));
      render_recipe buf indent recipe ~owner:"prepared" ~shared
    | Context.Shared -> ());
    if Summary.is_ctor setter then
      Buffer.add_string buf
        (Printf.sprintf "%s%s = new %s(..., %s, ...);\n" indent owner
           setter.Summary.set_cls pay)
    else if setter.Summary.set_lhs.Sym.root = Sym.Ret then
      Buffer.add_string buf
        (Printf.sprintf "%s%s = %s(..., %s, ...);\n" indent owner
           setter.Summary.set_qname pay)
    else
      Buffer.add_string buf
        (Printf.sprintf "%s%s.%s(..., %s, ...);\n" indent owner
           setter.Summary.set_meth pay)

let to_source (t : test) : string =
  let buf = Buffer.create 512 in
  let p = t.st_pair in
  Buffer.add_string buf
    (Printf.sprintf "// synthesized test #%d: race on field .%s\n" t.st_id
       p.Pairs.p_field);
  Buffer.add_string buf
    (Printf.sprintf "//   %s : %s  <->  %s : %s\n" p.Pairs.p_a.Pairs.ep_qname
       (Sym.to_string p.Pairs.p_a.Pairs.ep_owner_path)
       p.Pairs.p_b.Pairs.ep_qname
       (Sym.to_string p.Pairs.p_b.Pairs.ep_owner_path));
  Buffer.add_string buf "void exposeRace() {\n";
  Buffer.add_string buf
    (Printf.sprintf "  // collectObjects: replay %s.%s twice, suspended before\n"
       t.st_seed_cls t.st_seed_meth);
  Buffer.add_string buf
    (Printf.sprintf "  //   %s (occurrence %d) and %s (occurrence %d)\n"
       p.Pairs.p_a.Pairs.ep_qname p.Pairs.p_a.Pairs.ep_occurrence
       p.Pairs.p_b.Pairs.ep_qname p.Pairs.p_b.Pairs.ep_occurrence);
  (match effective_recipe t.st_plan_b ~path:p.Pairs.p_b.Pairs.ep_owner_path.Sym.fields with
  | Some (_, r) -> render_recipe buf "  " r ~owner:"ownerB" ~shared:"shared"
  | None -> Buffer.add_string buf "  // (no context derivable)\n");
  Buffer.add_string buf
    (Printf.sprintf "  thread t1 = spawn ownerA.%s(...);\n"
       p.Pairs.p_a.Pairs.ep_meth);
  Buffer.add_string buf
    (Printf.sprintf "  thread t2 = spawn ownerB.%s(...);\n"
       p.Pairs.p_b.Pairs.ep_meth);
  Buffer.add_string buf "  join t1; join t2;\n}\n";
  Buffer.contents buf
