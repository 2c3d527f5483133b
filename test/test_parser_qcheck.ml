(* Property-based front-end testing: generate random well-formed Jir
   programs, check that pretty-printing round-trips through the parser
   and that the printed program type-checks and compiles. *)

open Jir.Ast

(* -------- a small generator of well-typed programs -------- *)

module G = QCheck.Gen

let gen_field = G.(map (fun i -> Printf.sprintf "f%d" i) (int_bound 2))

(* Expressions of type int over: literals, locals v0..v2 (ints), field
   this.f0..f2 (ints), arithmetic. *)
let rec gen_int_expr n =
  if n <= 0 then
    G.oneof
      [
        G.map (fun i -> mk_expr (Eint i)) (G.int_bound 9);
        G.map (fun v -> mk_expr (Evar v)) (G.oneofl [ "v0"; "v1" ]);
        G.map (fun f -> mk_expr (Efield (mk_expr Ethis, f))) gen_field;
      ]
  else
    G.oneof
      [
        gen_int_expr 0;
        G.map2
          (fun op (l, r) -> mk_expr (Ebinop (op, l, r)))
          (G.oneofl [ Add; Sub; Mul ])
          (G.pair (gen_int_expr (n - 1)) (gen_int_expr (n - 1)));
        G.map (fun e -> mk_expr (Eunop (Neg, e))) (gen_int_expr (n - 1));
      ]

let gen_bool_expr n =
  G.oneof
    [
      G.map (fun b -> mk_expr (Ebool b)) G.bool;
      G.map2
        (fun op (l, r) -> mk_expr (Ebinop (op, l, r)))
        (G.oneofl [ Lt; Le; Gt; Ge; Eq; Ne ])
        (G.pair (gen_int_expr n) (gen_int_expr n));
    ]

let rec gen_stmt n =
  if n <= 0 then
    G.oneof
      [
        G.map2
          (fun f e -> mk_stmt (Sassign (Lfield (mk_expr Ethis, f), e)))
          gen_field (gen_int_expr 1);
        G.map2
          (fun v e -> mk_stmt (Sassign (Lvar v, e)))
          (G.oneofl [ "v0"; "v1" ])
          (gen_int_expr 1);
      ]
  else
    G.oneof
      [
        gen_stmt 0;
        G.map2
          (fun c (th, el) -> mk_stmt (Sif (c, th, el)))
          (gen_bool_expr 1)
          (G.pair (gen_block (n - 1)) (gen_block (n - 1)));
        G.map
          (fun body -> mk_stmt (Ssync (mk_expr Ethis, body)))
          (gen_block (n - 1));
      ]

and gen_block n = G.list_size (G.int_range 1 3) (gen_stmt n)

let gen_method i =
  G.map2
    (fun sync body ->
      {
        m_name = Printf.sprintf "m%d" i;
        m_static = false;
        m_sync = sync;
        m_abstract = false;
        m_ret = Tvoid;
        m_params = [ (Tint, "v0"); (Tint, "v1") ];
        m_body = body;
        m_pos = dummy_pos;
      })
    G.bool (gen_block 2)

let gen_class =
  G.map2
    (fun n_methods methods ->
      let fields =
        List.map
          (fun i ->
            {
              f_name = Printf.sprintf "f%d" i;
              f_static = false;
              f_ty = Tint;
              f_init = None;
              f_pos = dummy_pos;
            })
          [ 0; 1; 2 ]
      in
      [
        {
          c_name = "G";
          c_kind = Kclass;
          c_super = None;
          c_impls = [];
          c_fields = fields;
          c_methods = List.filteri (fun i _ -> i < n_methods) methods;
          c_pos = dummy_pos;
        };
      ])
    (G.int_range 1 3)
    (G.flatten_l [ gen_method 0; gen_method 1; gen_method 2 ])

let arb_program =
  QCheck.make ~print:(fun p -> Jir.Pretty.program_to_string p) gen_class

let roundtrip_prop (p : program) =
  let p1 = Jir.Pretty.program_to_string p in
  let p2 = Jir.Pretty.program_to_string (Jir.Parser.parse_program p1) in
  String.equal p1 p2

let compiles_prop (p : program) =
  let p1 = Jir.Pretty.program_to_string p in
  match Jir.Compile.compile_source p1 with
  | _ -> true
  | exception Jir.Diag.Error _ -> false

(* Executing a generated method never faults: the generated statements
   only touch int fields/locals under this. *)
let executes_prop (p : program) =
  let p1 = Jir.Pretty.program_to_string p in
  let cu = Jir.Compile.compile_source p1 in
  let m = Runtime.Machine.create cu in
  match Runtime.Machine.construct m ~cls:"G" ~args:[] () with
  | Error _ -> false
  | Ok recv ->
    List.for_all
      (fun (mname, cm) ->
        ignore mname;
        match
          Runtime.Machine.call m ~cm ~recv:(Some recv)
            ~args:[ Runtime.Value.Vint 1; Runtime.Value.Vint 2 ]
            ()
        with
        | Ok _ -> true
        | Error _ -> false)
      (Option.get (Jir.Code.find_cls cu "G")).Jir.Code.cc_methods

(* Pinned seed by default; NARADA_QCHECK_RANDOM=1 explores. *)
let to_alcotest = Testlib.Fixtures.qcheck_case

let () =
  Alcotest.run "parser-qcheck"
    [
      ( "properties",
        [
          to_alcotest
            (QCheck.Test.make ~name:"pretty/parse round-trip" ~count:300
               arb_program roundtrip_prop);
          to_alcotest
            (QCheck.Test.make ~name:"generated programs compile" ~count:300
               arb_program compiles_prop);
          to_alcotest
            (QCheck.Test.make ~name:"generated methods execute" ~count:150
               arb_program executes_prop);
        ] );
    ]
