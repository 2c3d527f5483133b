(* Client-visible access paths ("I-paths", §3.2 of the paper).

   The analysis rewrites every client-invoked library method so the
   receiver and parameters are captured in frozen variables I0, I1, ...
   (the paper's I_this, I_z); return values get I_r.  An access path
   [I_i.f1...fk] then describes how a client-controlled object reaches
   the owner of an access — the information pair generation and context
   derivation are built on. *)

type root =
  | Recv (* I0: the receiver *)
  | Arg of int (* I_k: k-th parameter, 1-based *)
  | Ret (* I_r: the return value *)

type t = { root : root; fields : string list }

let make root fields = { root; fields }
let of_root root = { root; fields = [] }

let equal_root a b =
  match (a, b) with
  | Recv, Recv | Ret, Ret -> true
  | Arg i, Arg j -> Int.equal i j
  | (Recv | Arg _ | Ret), _ -> false

let equal a b = equal_root a.root b.root && List.equal String.equal a.fields b.fields

let root_to_string = function
  | Recv -> "I0"
  | Arg i -> Printf.sprintf "I%d" i
  | Ret -> "Ir"

let to_string { root; fields } =
  String.concat "." (root_to_string root :: fields)

let append t f = { t with fields = t.fields @ [ f ] }

let depth t = List.length t.fields
