(* Greedy structural shrinking: enumerate one-change reductions lazily,
   coarsest first, keep the first one the predicate accepts, restart.
   The fixpoint is the minimal counterexample reported to the user. *)

open Jir.Ast

(* All ways to drop exactly one element of a list. *)
let drop_one (l : 'a list) : 'a list Seq.t =
  Seq.init (List.length l) (fun i -> List.filteri (fun j _ -> j <> i) l)

(* All ways to rewrite exactly one element of a list, given a rewriter
   for single elements. *)
let rewrite_one (rw : 'a -> 'a Seq.t) (l : 'a list) : 'a list Seq.t =
  List.to_seq l
  |> Seq.mapi (fun i x ->
         Seq.map (fun x' -> List.mapi (fun j y -> if j = i then x' else y) l) (rw x))
  |> Seq.concat

(* Statement reductions: replace a compound statement by (a prefix of)
   its body, or rewrite inside its nested blocks. *)
let rec stmt_reductions (st : stmt) : stmt list Seq.t =
  match st.sdesc with
  | Sif (c, th, el) ->
    Seq.append
      (List.to_seq [ th; el ])
      (Seq.append
         (Seq.map (fun th' -> [ { st with sdesc = Sif (c, th', el) } ]) (block_reductions th))
         (Seq.map (fun el' -> [ { st with sdesc = Sif (c, th, el') } ]) (block_reductions el)))
  | Swhile (c, b) ->
    Seq.append
      (Seq.return b)
      (Seq.map (fun b' -> [ { st with sdesc = Swhile (c, b') } ]) (block_reductions b))
  | Ssync (e, b) ->
    Seq.append
      (Seq.return b)
      (Seq.map (fun b' -> [ { st with sdesc = Ssync (e, b') } ]) (block_reductions b))
  | Sfor (_, _, _, b) -> Seq.return b
  | Sdecl _ | Sassign _ | Sexpr _ | Sbreak | Scontinue | Sreturn _ | Sassert _
  | Sthrow _ | Sspawn _ | Sjoin _ ->
    Seq.empty

(* Block reductions: drop one statement, or reduce one statement. *)
and block_reductions (b : block) : block Seq.t =
  Seq.append (drop_one b)
    (List.to_seq b
    |> Seq.mapi (fun i st ->
           Seq.map
             (fun repl ->
               List.concat (List.mapi (fun j y -> if j = i then repl else [ y ]) b))
             (stmt_reductions st))
    |> Seq.concat)

let method_reductions (m : method_decl) : method_decl Seq.t =
  Seq.map (fun b -> { m with m_body = b }) (block_reductions m.m_body)

let class_reductions (c : class_decl) : class_decl Seq.t =
  Seq.append
    (Seq.map (fun ms -> { c with c_methods = ms }) (drop_one c.c_methods))
    (Seq.append
       (Seq.map (fun fs -> { c with c_fields = fs }) (drop_one c.c_fields))
       (Seq.map (fun ms -> { c with c_methods = ms })
          (rewrite_one method_reductions c.c_methods)))

(* Coarsest-first: whole classes, then members, then statements. *)
let program_reductions (p : program) : program Seq.t =
  Seq.append (drop_one p) (rewrite_one class_reductions p)

let shrink_trace ~keep (p : program) : program list =
  let rec go p acc =
    match Seq.find keep (program_reductions p) with
    | Some p' -> go p' (p' :: acc)
    | None -> List.rev acc
  in
  go p []

let shrink ~keep (p : program) : program * int =
  let steps = shrink_trace ~keep p in
  match List.rev steps with [] -> (p, 0) | last :: _ -> (last, List.length steps)
