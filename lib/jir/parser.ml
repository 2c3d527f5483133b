(* Recursive-descent parser for Jir.

   One Java ambiguity is resolved by a naming convention that the whole
   code base follows: identifiers beginning with an uppercase letter are
   class/interface names, all others are variables, fields and methods.
   This lets the parser distinguish [Foo.m(...)] (static call) from
   [x.m(...)] (instance call) and [Foo x = ...] (declaration) from
   [x = ...] (assignment) with one token of lookahead. *)

open Ast
open Lexer

type state = { toks : Lexer.lexed array; mutable idx : int }

let peek st = st.toks.(st.idx).tok
let peek2 st =
  if st.idx + 1 < Array.length st.toks then st.toks.(st.idx + 1).tok else EOF
let pos st = st.toks.(st.idx).tpos

let advance st = if st.idx + 1 < Array.length st.toks then st.idx <- st.idx + 1

let expect st tok =
  if peek st = tok then advance st
  else
    Diag.error ~pos:(pos st) "expected '%s' but found '%s'"
      (token_to_string tok)
      (token_to_string (peek st))

let expect_ident st =
  match peek st with
  | IDENT x ->
    advance st;
    x
  | t -> Diag.error ~pos:(pos st) "expected identifier, found '%s'" (token_to_string t)

let is_class_ident (s : string) =
  String.length s > 0 && s.[0] >= 'A' && s.[0] <= 'Z'

(* ------------------------------------------------------------------ *)
(* Types                                                              *)
(* ------------------------------------------------------------------ *)

let rec parse_array_suffix st base =
  if peek st = LBRACKET && peek2 st = RBRACKET then (
    advance st;
    advance st;
    parse_array_suffix st (Tarray base))
  else base

let parse_base_ty st =
  match peek st with
  | KW_INT ->
    advance st;
    Tint
  | KW_BOOL ->
    advance st;
    Tbool
  | KW_STR ->
    advance st;
    Tstr
  | KW_VOID ->
    advance st;
    Tvoid
  | KW_THREAD ->
    advance st;
    Tthread
  | IDENT c when is_class_ident c ->
    advance st;
    Tclass c
  | t -> Diag.error ~pos:(pos st) "expected a type, found '%s'" (token_to_string t)

let parse_ty st = parse_array_suffix st (parse_base_ty st)

(* ------------------------------------------------------------------ *)
(* Expressions (precedence climbing)                                   *)
(* ------------------------------------------------------------------ *)

let binop_of_token = function
  | OROR -> Some (Or, 1)
  | ANDAND -> Some (And, 2)
  | EQEQ -> Some (Eq, 3)
  | NEQ -> Some (Ne, 3)
  | Lexer.LT -> Some (Ast.Lt, 4)
  | Lexer.LE -> Some (Ast.Le, 4)
  | Lexer.GT -> Some (Ast.Gt, 4)
  | Lexer.GE -> Some (Ast.Ge, 4)
  | PLUS -> Some (Add, 5)
  | MINUS -> Some (Sub, 5)
  | STAR -> Some (Mul, 6)
  | SLASH -> Some (Div, 6)
  | PERCENT -> Some (Mod, 6)
  | _ -> None

let rec parse_expr st = parse_binop st 1

and parse_binop st min_prec =
  let lhs = ref (parse_unary st) in
  let continue_ = ref true in
  while !continue_ do
    match binop_of_token (peek st) with
    | Some (op, prec) when prec >= min_prec ->
      let p = pos st in
      advance st;
      let rhs = parse_binop st (prec + 1) in
      lhs := mk_expr ~pos:p (Ebinop (op, !lhs, rhs))
    | Some _ | None -> continue_ := false
  done;
  !lhs

and parse_unary st =
  match peek st with
  | BANG ->
    let p = pos st in
    advance st;
    mk_expr ~pos:p (Eunop (Not, parse_unary st))
  | MINUS ->
    let p = pos st in
    advance st;
    mk_expr ~pos:p (Eunop (Neg, parse_unary st))
  | _ -> parse_postfix st

and parse_postfix st =
  let e = ref (parse_primary st) in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | DOT -> (
      let p = pos st in
      advance st;
      let name = expect_ident st in
      match peek st with
      | LPAREN ->
        let args = parse_call_args st in
        let desc =
          match !e with
          | { desc = Evar c; _ } when is_class_ident c -> Estatic_call (c, name, args)
          | recv -> Ecall (recv, name, args)
        in
        e := mk_expr ~pos:p desc
      | _ ->
        let desc =
          match !e with
          | { desc = Evar c; _ } when is_class_ident c -> Estatic_field (c, name)
          | recv -> Efield (recv, name)
        in
        e := mk_expr ~pos:p desc)
    | LBRACKET ->
      let p = pos st in
      advance st;
      let i = parse_expr st in
      expect st RBRACKET;
      e := mk_expr ~pos:p (Eindex (!e, i))
    | _ -> continue_ := false
  done;
  !e

and parse_call_args st =
  expect st LPAREN;
  if peek st = RPAREN then (
    advance st;
    [])
  else
    let rec loop acc =
      let arg = parse_expr st in
      if peek st = COMMA then (
        advance st;
        loop (arg :: acc))
      else (
        expect st RPAREN;
        List.rev (arg :: acc))
    in
    loop []

and parse_primary st =
  let p = pos st in
  match peek st with
  | INT n ->
    advance st;
    mk_expr ~pos:p (Eint n)
  | STRING s ->
    advance st;
    mk_expr ~pos:p (Estr s)
  | KW_TRUE ->
    advance st;
    mk_expr ~pos:p (Ebool true)
  | KW_FALSE ->
    advance st;
    mk_expr ~pos:p (Ebool false)
  | KW_NULL ->
    advance st;
    mk_expr ~pos:p Enull
  | KW_THIS ->
    advance st;
    mk_expr ~pos:p Ethis
  | IDENT x ->
    advance st;
    mk_expr ~pos:p (Evar x)
  | KW_NEW -> (
    advance st;
    match peek st with
    | IDENT c when is_class_ident c && peek2 st = LPAREN ->
      advance st;
      let args = parse_call_args st in
      mk_expr ~pos:p (Enew (c, args))
    | _ ->
      let base = parse_base_ty st in
      expect st LBRACKET;
      let n = parse_expr st in
      expect st RBRACKET;
      mk_expr ~pos:p (Enew_array (base, n)))
  | LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st RPAREN;
    e
  | t -> Diag.error ~pos:p "expected an expression, found '%s'" (token_to_string t)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let lvalue_of_expr st (e : expr) =
  match e.desc with
  | Evar x -> Lvar x
  | Efield (o, f) -> Lfield (o, f)
  | Estatic_field (c, f) -> Lstatic (c, f)
  | Eindex (a, i) -> Lindex (a, i)
  | Eint _ | Ebool _ | Estr _ | Enull | Ethis | Ecall _ | Estatic_call _
  | Enew _ | Enew_array _ | Ebinop _ | Eunop _ ->
    Diag.error ~pos:(pos st) "left-hand side of '=' is not assignable"

(* A for-loop update: an assignment or a call, without the ';'. *)
let parse_simple_no_semi st =
  let p = pos st in
  let e = parse_expr st in
  if peek st = ASSIGN then (
    let lv = lvalue_of_expr st e in
    advance st;
    let rhs = parse_expr st in
    mk_stmt ~pos:p (Sassign (lv, rhs)))
  else mk_stmt ~pos:p (Sexpr e)

let starts_decl st =
  match peek st with
  | KW_INT | KW_BOOL | KW_STR -> true
  | IDENT c when is_class_ident c -> (
    match peek2 st with
    | IDENT _ -> true
    | LBRACKET ->
      st.idx + 2 < Array.length st.toks && st.toks.(st.idx + 2).tok = RBRACKET
    | _ -> false)
  | _ -> false

let rec parse_stmt st =
  let p = pos st in
  match peek st with
  | KW_IF ->
    advance st;
    expect st LPAREN;
    let c = parse_expr st in
    expect st RPAREN;
    let th = parse_block st in
    let el =
      if peek st = KW_ELSE then (
        advance st;
        parse_block st)
      else []
    in
    mk_stmt ~pos:p (Sif (c, th, el))
  | KW_WHILE ->
    advance st;
    expect st LPAREN;
    let c = parse_expr st in
    expect st RPAREN;
    let body = parse_block st in
    mk_stmt ~pos:p (Swhile (c, body))
  | KW_FOR ->
    advance st;
    expect st LPAREN;
    let init =
      if peek st = SEMI then (
        advance st;
        None)
      else Some (parse_stmt st) (* a decl/assign statement, consumes ';' *)
    in
    let cond =
      if peek st = SEMI then None else Some (parse_expr st)
    in
    expect st SEMI;
    let update =
      if peek st = RPAREN then None else Some (parse_simple_no_semi st)
    in
    expect st RPAREN;
    let body = parse_block st in
    mk_stmt ~pos:p (Sfor (init, cond, update, body))
  | KW_BREAK ->
    advance st;
    expect st SEMI;
    mk_stmt ~pos:p Sbreak
  | KW_CONTINUE ->
    advance st;
    expect st SEMI;
    mk_stmt ~pos:p Scontinue
  | KW_RETURN ->
    advance st;
    if peek st = SEMI then (
      advance st;
      mk_stmt ~pos:p (Sreturn None))
    else
      let e = parse_expr st in
      expect st SEMI;
      mk_stmt ~pos:p (Sreturn (Some e))
  | KW_SYNCHRONIZED ->
    advance st;
    expect st LPAREN;
    let e = parse_expr st in
    expect st RPAREN;
    let body = parse_block st in
    mk_stmt ~pos:p (Ssync (e, body))
  | KW_ASSERT ->
    advance st;
    let e = parse_expr st in
    expect st SEMI;
    mk_stmt ~pos:p (Sassert e)
  | KW_THROW -> (
    advance st;
    match peek st with
    | STRING msg ->
      advance st;
      expect st SEMI;
      mk_stmt ~pos:p (Sthrow msg)
    | t ->
      Diag.error ~pos:(pos st) "expected string literal after 'throw', found '%s'"
        (token_to_string t))
  | KW_THREAD ->
    advance st;
    let x = expect_ident st in
    expect st ASSIGN;
    expect st KW_SPAWN;
    let target = parse_postfix st in
    expect st SEMI;
    (match target.desc with
    | Ecall (recv, m, args) -> mk_stmt ~pos:p (Sspawn (x, recv, m, args))
    | Eint _ | Ebool _ | Estr _ | Enull | Ethis | Evar _ | Efield _
    | Estatic_field _ | Eindex _ | Estatic_call _ | Enew _ | Enew_array _
    | Ebinop _ | Eunop _ ->
      Diag.error ~pos:p "'spawn' expects an instance method invocation")
  | KW_JOIN ->
    advance st;
    let e = parse_expr st in
    expect st SEMI;
    mk_stmt ~pos:p (Sjoin e)
  | _ when starts_decl st ->
    let t = parse_ty st in
    let x = expect_ident st in
    let init =
      if peek st = ASSIGN then (
        advance st;
        Some (parse_expr st))
      else None
    in
    expect st SEMI;
    mk_stmt ~pos:p (Sdecl (t, x, init))
  | _ ->
    let e = parse_expr st in
    if peek st = ASSIGN then (
      let lv = lvalue_of_expr st e in
      advance st;
      let rhs = parse_expr st in
      expect st SEMI;
      mk_stmt ~pos:p (Sassign (lv, rhs)))
    else (
      expect st SEMI;
      mk_stmt ~pos:p (Sexpr e))

and parse_block st =
  expect st LBRACE;
  let rec loop acc =
    if peek st = RBRACE then (
      advance st;
      List.rev acc)
    else loop (parse_stmt st :: acc)
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let parse_params st =
  expect st LPAREN;
  if peek st = RPAREN then (
    advance st;
    [])
  else
    let rec loop acc =
      let t = parse_ty st in
      let x = expect_ident st in
      if peek st = COMMA then (
        advance st;
        loop ((t, x) :: acc))
      else (
        expect st RPAREN;
        List.rev ((t, x) :: acc))
    in
    loop []

(* A member is a field, a method or a constructor.  [cls] is the name of
   the enclosing class, used to recognize constructors. *)
let parse_member st ~cls ~iface =
  let p = pos st in
  let m_static = peek st = KW_STATIC in
  if m_static then advance st;
  let m_sync = peek st = KW_SYNCHRONIZED in
  if m_sync then advance st;
  match peek st with
  | IDENT c when String.equal c cls && peek2 st = LPAREN ->
    (* constructor *)
    advance st;
    let params = parse_params st in
    let body = parse_block st in
    `Method
      {
        m_name = ctor_name;
        m_static = false;
        m_sync;
        m_abstract = false;
        m_ret = Tvoid;
        m_params = params;
        m_body = body;
        m_pos = p;
      }
  | _ -> (
    let t = parse_ty st in
    let name = expect_ident st in
    match peek st with
    | LPAREN ->
      let params = parse_params st in
      if iface || peek st = SEMI then (
        expect st SEMI;
        `Method
          {
            m_name = name;
            m_static;
            m_sync;
            m_abstract = true;
            m_ret = t;
            m_params = params;
            m_body = [];
            m_pos = p;
          })
      else
        let body = parse_block st in
        `Method
          {
            m_name = name;
            m_static;
            m_sync;
            m_abstract = false;
            m_ret = t;
            m_params = params;
            m_body = body;
            m_pos = p;
          }
    | _ ->
      let init =
        if peek st = ASSIGN then (
          advance st;
          Some (parse_expr st))
        else None
      in
      expect st SEMI;
      `Field { f_name = name; f_static = m_static; f_ty = t; f_init = init; f_pos = p })

let parse_class st =
  let p = pos st in
  let kind =
    match peek st with
    | KW_CLASS ->
      advance st;
      Kclass
    | KW_INTERFACE ->
      advance st;
      Kinterface
    | t ->
      Diag.error ~pos:p "expected 'class' or 'interface', found '%s'"
        (token_to_string t)
  in
  let name = expect_ident st in
  if not (is_class_ident name) then
    Diag.error ~pos:p "class names must start with an uppercase letter: %s" name;
  let super =
    if peek st = KW_EXTENDS then (
      advance st;
      Some (expect_ident st))
    else None
  in
  let impls =
    if peek st = KW_IMPLEMENTS then (
      advance st;
      let rec loop acc =
        let i = expect_ident st in
        if peek st = COMMA then (
          advance st;
          loop (i :: acc))
        else List.rev (i :: acc)
      in
      loop [])
    else []
  in
  expect st LBRACE;
  let fields = ref [] in
  let methods = ref [] in
  let rec loop () =
    if peek st = RBRACE then advance st
    else (
      (match parse_member st ~cls:name ~iface:(kind = Kinterface) with
      | `Field f -> fields := f :: !fields
      | `Method m -> methods := m :: !methods);
      loop ())
  in
  loop ();
  {
    c_name = name;
    c_kind = kind;
    c_super = super;
    c_impls = impls;
    c_fields = List.rev !fields;
    c_methods = List.rev !methods;
    c_pos = p;
  }

let parse_program src =
  let st = { toks = Lexer.tokenize src; idx = 0 } in
  let rec loop acc =
    if peek st = EOF then List.rev acc else loop (parse_class st :: acc)
  in
  loop []
