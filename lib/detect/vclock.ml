(* Vector clocks and epochs, the metadata of happens-before race
   detection (Djit+/FastTrack). *)

type t = int array (* index = tid; missing entries are 0 *)

let empty : t = [||]

let get (c : t) tid = if tid < Array.length c then c.(tid) else 0

let set (c : t) tid v : t =
  let n = max (Array.length c) (tid + 1) in
  let out = Array.make n 0 in
  Array.blit c 0 out 0 (Array.length c);
  out.(tid) <- v;
  out

let inc (c : t) tid : t = set c tid (get c tid + 1)

let join (a : t) (b : t) : t =
  let n = max (Array.length a) (Array.length b) in
  Array.init n (fun i -> max (get a i) (get b i))

let leq (a : t) (b : t) =
  let n = max (Array.length a) (Array.length b) in
  let rec go i = i >= n || (get a i <= get b i && go (i + 1)) in
  go 0

let equal (a : t) (b : t) =
  let n = max (Array.length a) (Array.length b) in
  let rec go i = i >= n || (get a i = get b i && go (i + 1)) in
  go 0

let to_string (c : t) =
  "<"
  ^ String.concat ","
      (List.map string_of_int (Array.to_list c))
  ^ ">"

(* FastTrack epochs: a (clock, tid) pair c@t. *)
module Epoch = struct
  type e = { clock : int; tid : int }

  let none = { clock = 0; tid = -1 }
  let is_none e = e.tid = -1

  (* e ⪯ C : the epoch happens-before the vector clock. *)
  let leq_vc e (c : t) = is_none e || e.clock <= get c e.tid

  let of_vc (c : t) tid = { clock = get c tid; tid }
  let tid e = e.tid
  let clock e = e.clock
end
