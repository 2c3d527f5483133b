(** Client-visible access paths ("I-paths", §3.2): how a frozen
    receiver/parameter/return-value of a client-invoked library method
    reaches an object — e.g. [I0.x.o] for the receiver's [x] field's
    [o] field. *)

type root =
  | Recv  (** I0: the receiver *)
  | Arg of int  (** I_k: the k-th parameter, 1-based *)
  | Ret  (** I_r: the return value *)

type t = { root : root; fields : string list }

val make : root -> string list -> t
val of_root : root -> t
val equal : t -> t -> bool
val to_string : t -> string
val append : t -> string -> t

val depth : t -> int
(** Number of field dereferences. *)
