(* The one deterministic RNG for the whole system.

   Every component that draws random numbers (the VM's [Sys.randInt],
   the schedulers, the race-directed fuzzer, the ConTeGe baseline) used
   to carry its own copy of a splitmix64 stream plus a `rem (logand z
   max_int) n` bounded draw.  That draw is modulo-biased (the low
   residues of a 63-bit stream are slightly over-represented whenever
   [n] does not divide 2^63), and the copies had drifted: one of them
   could even raise [Division_by_zero] on an empty pick.  This module is
   the single shared implementation: one generator, one *unbiased*
   bounded draw (Lemire-style rejection sampling over the full 64-bit
   stream), and a [pick] that fails loudly on an empty list.

   Draws sit on the scheduler's per-step path, so they must not
   allocate.  The state is kept unboxed in an 8-byte buffer (a mutable
   [int64] record field would box on every store), the stream step is
   inlined into its callers, and the unsigned remainder is spelled out
   here with primitive operations (the [Int64.unsigned_*] functions
   take and return boxed values).

   A power-of-two bound (the schedulers' picks among one or two live
   threads) skips the two [Int64] divisions: 2^64 is a multiple of it,
   so no draw is rejected, and the remainder is the draw's low bits,
   which survive the conversion to [int] since an [int] bound is at
   most 2^61.  The values and the stream are those of the general path. *)

type t = Bytes.t (* 8 bytes: the splitmix64 gamma walk, native-endian *)

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let create seed =
  let t = Bytes.create 8 in
  set_state t 0 seed;
  t

let copy = Bytes.copy

(* splitmix64 (Steele, Lea & Flood): the gamma walk is the state, the
   output is the finalizer. *)
let[@inline] bits t =
  let open Int64 in
  let s = add (get_state t 0) 0x9E3779B97F4A7C15L in
  set_state t 0 s;
  let z = mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Unsigned [a < b]: shift both by 2^63 and compare signed. *)
let[@inline] unsigned_lt (a : int64) (b : int64) =
  Int64.sub a Int64.min_int < Int64.sub b Int64.min_int

(* [Int64.unsigned_rem n d] for [d > 0]: halve [n] so the signed
   division is exact, then correct the remainder by at most one [d]. *)
let[@inline] unsigned_rem n d =
  let open Int64 in
  let q = shift_left (div (shift_right_logical n 1) d) 1 in
  let r = sub n (mul q d) in
  if unsigned_lt r d then r else sub r d

(* Unbiased draw in [0, bound) over the full unsigned 64-bit stream.
   2^64 mod n values at the bottom of the range belong to an incomplete
   block and are rejected; [unsigned_rem (neg n) n] computes that
   threshold ((2^64 - n) mod n = 2^64 mod n).  At most one retry is
   expected for any bound that fits in an int.

   No caller reaches the [Invalid_argument]: [Sys.randInt] crashes the
   VM thread on a non-positive bound before drawing, and every other
   bound is a constant, a [max 1 _], or the length of a list or count
   that the caller has just matched as non-empty. *)
let below t bound =
  if bound <= 0 then
    invalid_arg (Printf.sprintf "Rng.below: non-positive bound %d" bound);
  if bound land (bound - 1) = 0 then Int64.to_int (bits t) land (bound - 1)
  else begin
    let n = Int64.of_int bound in
    let threshold = unsigned_rem (Int64.neg n) n in
    let z = ref (bits t) in
    while unsigned_lt !z threshold do
      z := bits t
    done;
    Int64.to_int (unsigned_rem !z n)
  end

(* No caller reaches the [Invalid_argument]: ConTeGe, the only one,
   matches the empty list away before every pick. *)
let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | x :: _ as l ->
    (* [i] is below the length, so the walk never runs off the end;
       the [[]] case is only there to make it total. *)
    let rec nth i = function
      | [] -> x
      | y :: rest -> if i = 0 then y else nth (i - 1) rest
    in
    nth (below t (List.length l)) l

(* No caller reaches the [Invalid_argument]: no library code draws
   from a range; tests pass constant, non-empty ones. *)
let range t lo hi =
  if hi < lo then invalid_arg "Rng.range: hi < lo";
  lo + below t (hi - lo + 1)
