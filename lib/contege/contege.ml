(* A ConTeGe-style baseline (Pradel & Gross, PLDI'12): fully random
   concurrent test generation with a thread-safety-violation oracle.

   Each generated test builds an object of the class under test with a
   random sequential prefix, then runs two random call suffixes from two
   threads.  A test is a *violation* witness when some interleaved
   execution crashes or deadlocks while both serializations run
   cleanly.  Unlike Narada there is no direction: methods and sharing
   are chosen blindly, which is why the paper's comparison shows it
   missing almost everything (§5: thousands of tests, 3 violations in
   total across the corpus).

   Tests are generated as Jir source (so they are printable and
   independently runnable), then compiled and executed in-process. *)

(* ------------------------------------------------------------------ *)
(* Source generation                                                   *)
(* ------------------------------------------------------------------ *)

type gen = {
  g_prog : Jir.Program.t;
  g_rng : Rng.t; (* every random choice *)
  buf : Buffer.t; (* prefix declarations (main-local) *)
  mutable fresh : int;
  mutable pool : (Jir.Ast.ty * string) list; (* constructed locals *)
}

let fresh_var g =
  let v = Printf.sprintf "v%d" g.fresh in
  g.fresh <- g.fresh + 1;
  v

(* Concrete classes implementing an interface (or the class itself). *)
let implementers g (iface : string) : string list =
  List.filter_map
    (fun (c : Jir.Ast.class_decl) ->
      if
        c.Jir.Ast.c_kind = Jir.Ast.Kclass
        && (String.equal c.Jir.Ast.c_name iface
           || List.mem iface
                (Jir.Program.implemented_interfaces g.g_prog c.Jir.Ast.c_name))
      then Some c.Jir.Ast.c_name
      else None)
    (Jir.Program.classes g.g_prog)

(* Produce an expression of the requested type.  In [inline] mode the
   expression must be self-contained (suffix calls run inside Worker
   bodies that cannot see main's locals); otherwise helper declarations
   may be emitted into the prefix and pooled. *)
let rec expr_of_ty g (ty : Jir.Ast.ty) ~depth ~inline : string option =
  match ty with
  | Jir.Ast.Tint -> Some (string_of_int (Rng.below g.g_rng 10))
  | Jir.Ast.Tbool -> Some (if Rng.below g.g_rng 2 = 0 then "true" else "false")
  | Jir.Ast.Tstr -> Some "\"select 1 from t\""
  | Jir.Ast.Tarray elt -> (
    match elt with
    | Jir.Ast.Tint -> Some "new int[8]"
    | Jir.Ast.Tbool -> Some "new bool[8]"
    | Jir.Ast.Tclass c -> Some (Printf.sprintf "new %s[8]" c)
    | Jir.Ast.Tstr | Jir.Ast.Tarray _ | Jir.Ast.Tvoid | Jir.Ast.Tthread -> None)
  | Jir.Ast.Tclass c -> (
    let compatible =
      List.filter
        (fun (t, _) -> Jir.Program.is_subtype g.g_prog t (Jir.Ast.Tclass c))
        g.pool
    in
    match compatible with
    | (_, v) :: _ when (not inline) && Rng.below g.g_rng 2 = 0 -> Some v
    | _ -> construct_class g c ~depth ~inline)
  | Jir.Ast.Tvoid | Jir.Ast.Tthread -> None

(* A constructor expression "new Impl(args)"; in non-inline mode the
   object is bound to a fresh prefix local and pooled. *)
and construct_class g (c : string) ~depth ~inline : string option =
  if depth <= 0 then None
  else
    match implementers g c with
    | [] -> None
    | impls ->
      (* Try a randomly-picked implementation first, falling back to the
         others so deep wrapper chains cannot starve construction. *)
      let first = Rng.pick g.g_rng impls in
      let ordered = first :: List.filter (fun i -> i <> first) impls in
      let try_impl impl =
        let ctors = Jir.Program.constructors g.g_prog impl in
        let params =
          match ctors with
          | [] -> Some []
          | _ -> (
            let ctor = Rng.pick g.g_rng ctors in
            let rec build = function
              | [] -> Some []
              | (t, _) :: rest -> (
                match expr_of_ty g t ~depth:(depth - 1) ~inline with
                | Some e -> Option.map (fun es -> e :: es) (build rest)
                | None -> None)
            in
            build ctor.Jir.Ast.m_params)
        in
        match params with
        | None -> None
        | Some args ->
          let expr = Printf.sprintf "new %s(%s)" impl (String.concat ", " args) in
          if inline then Some expr
          else begin
            let v = fresh_var g in
            Buffer.add_string g.buf (Printf.sprintf "    %s %s = %s;\n" impl v expr);
            g.pool <- (Jir.Ast.Tclass impl, v) :: g.pool;
            Some v
          end
      in
      List.fold_left
        (fun acc impl -> match acc with Some _ -> acc | None -> try_impl impl)
        None ordered

(* A random call statement on [recv_expr] for an object of class [cls]. *)
let random_call g ~cls ~recv_expr ~inline : string option =
  match Jir.Program.concrete_methods g.g_prog cls with
  | [] -> None
  | methods -> (
    let _, m = Rng.pick g.g_rng methods in
    let rec build = function
      | [] -> Some []
      | (t, _) :: rest -> (
        match expr_of_ty g t ~depth:2 ~inline with
        | Some e -> Option.map (fun es -> e :: es) (build rest)
        | None -> None)
    in
    match build m.Jir.Ast.m_params with
    | None -> None
    | Some args ->
      Some
        (Printf.sprintf "%s.%s(%s);" recv_expr m.Jir.Ast.m_name
           (String.concat ", " args)))

type generated = {
  gen_index : int;
  gen_source : string; (* full program: library + workers + test class *)
}

(* Generate one random concurrent test for the class under test. *)
let generate (prog : Jir.Program.t) ~(cut : string) ~(lib_source : string)
    ~(seed : int64) ~(index : int) : generated option =
  let g =
    {
      g_prog = prog;
      g_rng = Rng.create (Int64.add seed (Int64.of_int (index * 1000003)));
      buf = Buffer.create 256;
      fresh = 0;
      pool = [];
    }
  in
  match construct_class g cut ~depth:3 ~inline:false with
  | None -> None
  | Some recv ->
    let prefix_calls = Rng.below g.g_rng 3 in
    for _ = 1 to prefix_calls do
      match random_call g ~cls:cut ~recv_expr:recv ~inline:false with
      | Some stmt -> Buffer.add_string g.buf ("    " ^ stmt ^ "\n")
      | None -> ()
    done;
    let suffix () =
      let n = 1 + Rng.below g.g_rng 2 in
      let stmts = ref [] in
      for _ = 1 to n do
        match random_call g ~cls:cut ~recv_expr:"this.target" ~inline:true with
        | Some s -> stmts := s :: !stmts
        | None -> ()
      done;
      if !stmts = [] then None else Some (List.rev !stmts)
    in
    (match (suffix (), suffix ()) with
    | Some s1, Some s2 ->
      let prefix = Buffer.contents g.buf in
      let worker name stmts =
        Printf.sprintf
          "class %s {\n  %s target;\n  %s(%s t) { this.target = t; }\n\
          \  void run() {\n    %s\n  }\n}\n"
          name cut name cut
          (String.concat "\n    " stmts)
      in
      let body =
        Printf.sprintf "%s    WorkerA wa = new WorkerA(%s);\n    WorkerB wb = new WorkerB(%s);\n"
          prefix recv recv
      in
      let src =
        Printf.sprintf
          "%s\n%s\n%s\nclass ContegeTest {\n\
          \  static void concurrent() {\n%s    thread t1 = spawn wa.run();\n    thread t2 = spawn wb.run();\n    join t1;\n    join t2;\n  }\n\
          \  static void serial12() {\n%s    wa.run();\n    wb.run();\n  }\n\
          \  static void serial21() {\n%s    wb.run();\n    wa.run();\n  }\n}\n"
          lib_source
          (worker "WorkerA" s1)
          (worker "WorkerB" s2)
          body body body
      in
      Some { gen_index = index; gen_source = src }
    | (Some _ | None), _ -> None)

(* ------------------------------------------------------------------ *)
(* The thread-safety-violation oracle                                  *)
(* ------------------------------------------------------------------ *)

type verdict =
  | Violation of string (* concurrent failure absent from serial runs *)
  | Passed
  | Invalid (* fails sequentially too, or does not compile *)

let run_entry cu ~meth ~sched =
  let r, _m =
    Conc.Exec.run_program cu
      ~client_classes:[ "ContegeTest"; "WorkerA"; "WorkerB" ]
      ~cls:"ContegeTest" ~meth sched
  in
  r

let check (gen : generated) ~schedules ~seed : verdict =
  match Jir.Compile.compile_source gen.gen_source with
  | exception Jir.Diag.Error _ -> Invalid
  | cu -> (
    let serial_fails meth =
      let r = run_entry cu ~meth ~sched:(Conc.Scheduler.round_robin ()) in
      r.Conc.Exec.crashes <> [] || r.Conc.Exec.outcome <> Conc.Exec.All_finished
    in
    if serial_fails "serial12" || serial_fails "serial21" then Invalid
    else
      let rec try_schedule i =
        if i >= schedules then Passed
        else
          let sched =
            Conc.Scheduler.random ~seed:(Int64.add seed (Int64.of_int (i * 7919)))
          in
          let r = run_entry cu ~meth:"concurrent" ~sched in
          match (r.Conc.Exec.crashes, r.Conc.Exec.outcome) with
          | (_, msg) :: _, _ -> Violation msg
          | [], Conc.Exec.Deadlock _ -> Violation "deadlock"
          | [], (Conc.Exec.All_finished | Conc.Exec.Fuel_exhausted) ->
            try_schedule (i + 1)
      in
      try_schedule 0)

type campaign = {
  ca_tests : int; (* generation attempts *)
  ca_valid : int; (* compiled and sequentially sound *)
  ca_violations : int;
  ca_first_violation : int option;
  ca_example : string option; (* source of the first violating test *)
}

let default_budget = 200

(* Run a ConTeGe campaign against a corpus entry. *)
let campaign (e : Corpus.Corpus_def.entry) ~budget ~schedules ~seed : campaign =
  match Jir.Compile.compile_source e.Corpus.Corpus_def.e_source with
  | exception Jir.Diag.Error _ ->
    {
      ca_tests = 0;
      ca_valid = 0;
      ca_violations = 0;
      ca_first_violation = None;
      ca_example = None;
    }
  | cu ->
    let prog = cu.Jir.Code.cu_program in
    let valid = ref 0 and violations = ref 0 in
    let first = ref None and example = ref None in
    for i = 0 to budget - 1 do
      match
        generate prog ~cut:e.Corpus.Corpus_def.e_name
          ~lib_source:e.Corpus.Corpus_def.e_source ~seed ~index:i
      with
      | None -> ()
      | Some gen -> (
        match check gen ~schedules ~seed with
        | Invalid -> ()
        | Passed -> incr valid
        | Violation _ ->
          incr valid;
          incr violations;
          if !first = None then begin
            first := Some i;
            example := Some gen.gen_source
          end)
    done;
    {
      ca_tests = budget;
      ca_valid = !valid;
      ca_violations = !violations;
      ca_first_violation = !first;
      ca_example = !example;
    }
