(* Line-based unified diff via longest-common-subsequence.  Quadratic in
   line counts, which is fine for Jir programs (hundreds of lines). *)

let split_lines s = String.split_on_char '\n' s |> Array.of_list

type op = Equal of string | Del of string | Add of string

let ops a b =
  let n = Array.length a and m = Array.length b in
  (* lcs.(i).(j) = LCS length of a[i..] / b[j..] *)
  let lcs = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      lcs.(i).(j) <-
        (if String.equal a.(i) b.(j) then 1 + lcs.(i + 1).(j + 1)
         else max lcs.(i + 1).(j) lcs.(i).(j + 1))
    done
  done;
  let rec walk i j acc =
    if i < n && j < m && String.equal a.(i) b.(j) then
      walk (i + 1) (j + 1) (Equal a.(i) :: acc)
    else if j < m && (i = n || lcs.(i).(j + 1) >= lcs.(i + 1).(j)) then
      walk i (j + 1) (Add b.(j) :: acc)
    else if i < n then walk (i + 1) j (Del a.(i) :: acc)
    else List.rev acc
  in
  walk 0 0 []

(* Group ops into hunks with [context] lines of equal context. *)
let context = 2

let unified ~original ~patched =
  let a = split_lines original and b = split_lines patched in
  let ops = ops a b in
  if List.for_all (function Equal _ -> true | _ -> false) ops then ""
  else begin
    (* Annotate each op with (old_line, new_line) 1-based positions. *)
    let annotated =
      let i = ref 1 and j = ref 1 in
      List.map
        (fun op ->
          let pos = (!i, !j) in
          (match op with
          | Equal _ ->
            incr i;
            incr j
          | Del _ -> incr i
          | Add _ -> incr j);
          (op, pos))
        ops
    in
    let arr = Array.of_list annotated in
    let n = Array.length arr in
    let is_change k =
      match fst arr.(k) with Equal _ -> false | Del _ | Add _ -> true
    in
    (* A line belongs to a hunk if within [context] of a change. *)
    let keep = Array.make n false in
    for k = 0 to n - 1 do
      if is_change k then
        for d = max 0 (k - context) to min (n - 1) (k + context) do
          keep.(d) <- true
        done
    done;
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "--- original\n+++ repaired\n";
    let k = ref 0 in
    while !k < n do
      if not keep.(!k) then incr k
      else begin
        let start = !k in
        let stop = ref start in
        while !stop < n - 1 && keep.(!stop + 1) do
          incr stop
        done;
        (* Hunk header: starting positions and line counts per side. *)
        let o_start, n_start = snd arr.(start) in
        let o_count = ref 0 and n_count = ref 0 in
        for d = start to !stop do
          match fst arr.(d) with
          | Equal _ ->
            incr o_count;
            incr n_count
          | Del _ -> incr o_count
          | Add _ -> incr n_count
        done;
        Buffer.add_string buf
          (Printf.sprintf "@@ -%d,%d +%d,%d @@\n" o_start !o_count n_start
             !n_count);
        for d = start to !stop do
          match fst arr.(d) with
          | Equal l -> Buffer.add_string buf (" " ^ l ^ "\n")
          | Del l -> Buffer.add_string buf ("-" ^ l ^ "\n")
          | Add l -> Buffer.add_string buf ("+" ^ l ^ "\n")
        done;
        k := !stop + 1
      end
    done;
    Buffer.contents buf
  end
