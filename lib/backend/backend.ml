(* The execution backend: the closure-compiled machine, the only engine.
   Kept as a module so callers written against a choice of engines still
   compile; every name here is single-valued. *)

type kind = Compiled

let to_string Compiled = "compiled"

type t = Runtime.Machine.Compiled.code

let prepare Compiled cu = Runtime.Machine.Compiled.of_unit cu

let on_machine (_ : t) (_ : Runtime.Machine.t) = ()
