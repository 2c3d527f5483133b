(* The campaign driver: generate → check → merge → shrink.

   Determinism contract: per-program seeds come from Par.seed over the
   base seed and the program index, results are merged in index order
   by Par.mapi, and the report deliberately contains nothing
   environment-dependent — so the output is byte-identical across job
   counts and runs. *)

type options = {
  o_count : int;
  o_seed : int64;
  o_jobs : int;
  o_mutate : Oracle.mutation option;
}

let default_options = { o_count = 200; o_seed = 7L; o_jobs = 1; o_mutate = None }

type violation = {
  vi_index : int;
  vi_oracle : string;
  vi_detail : string;
  vi_original_size : int;
  vi_shrunk_size : int;
  vi_shrink_steps : int;
  vi_source : string;
}

type report = {
  rp_options : options;
  rp_pass : (string * int) list;
  rp_failures : (int * string * string) list;
  rp_min : violation option;
}

let program_seed opts index = Par.seed ~base:opts.o_seed ~index

let check_one opts index =
  let seed = program_seed opts index in
  let program = Gen.generate ~seed in
  Oracle.check ?mutate:opts.o_mutate ~seed program

let shrink_violation opts (index, oracle, _detail) =
  let seed = program_seed opts index in
  let program = Gen.generate ~seed in
  let keep = Oracle.fails_oracle ?mutate:opts.o_mutate ~seed ~oracle in
  let minimal, steps = Shrink.shrink ~keep program in
  let detail =
    match
      List.assoc_opt oracle (Oracle.check ?mutate:opts.o_mutate ~seed minimal)
    with
    | Some (Oracle.Fail d) -> d
    | Some Oracle.Pass | None -> "(detail unavailable on shrunk program)"
  in
  {
    vi_index = index;
    vi_oracle = oracle;
    vi_detail = detail;
    vi_original_size = Jir.Ast.program_size program;
    vi_shrunk_size = Jir.Ast.program_size minimal;
    vi_shrink_steps = steps;
    vi_source = Gen.to_source minimal;
  }

let run (opts : options) : report =
  let opts = { opts with o_count = max 0 opts.o_count; o_jobs = max 1 opts.o_jobs } in
  let verdicts =
    Par.mapi ~jobs:opts.o_jobs
      (List.init opts.o_count Fun.id)
      (fun _ index -> check_one opts index)
  in
  let pass =
    List.map
      (fun name ->
        let n =
          List.fold_left
            (fun acc vs ->
              match List.assoc_opt name vs with
              | Some Oracle.Pass -> acc + 1
              | Some (Oracle.Fail _) | None -> acc)
            0 verdicts
        in
        (name, n))
      Oracle.names
  in
  let failures =
    List.concat
      (List.mapi
         (fun index vs ->
           match
             List.find_map
               (fun (n, v) ->
                 match v with Oracle.Pass -> None | Oracle.Fail d -> Some (n, d))
               vs
           with
           | Some (oracle, detail) -> [ (index, oracle, detail) ]
           | None -> [])
         verdicts)
  in
  let rp_min =
    match failures with [] -> None | f :: _ -> Some (shrink_violation opts f)
  in
  { rp_options = opts; rp_pass = pass; rp_failures = failures; rp_min }

let ok r = r.rp_failures = []

(* ---- coverage-guided campaign ----

   The blind campaign spends one check per fresh program, uniformly.
   The guided campaign works in rounds over a novelty-ranked corpus of
   program seeds: each round derives a batch of [batch] (program seed,
   check seed) specs purely from (options, round number, corpus state
   at the round boundary) — even slots generate fresh programs, odd slots
   re-check the top-ranked corpus programs under a new derived check
   seed (a schedule mutation: same program, different seeded
   interleavings).  After the batch executes (optionally over [Par]),
   results fold back in slot order; a run whose interleaving coverage
   contains anything new admits its program seed into the corpus with
   that gain.  [plateau] consecutive rounds with zero total novelty end
   the campaign early, as does the check budget ([o_count]) or an
   optional wall-clock budget (checked at round boundaries only — use
   it as a CI bound, not when byte-identical output matters).

   Specs depend only on the corpus at the round start and merging is in
   slot order, so for a fixed round count the report and the corpus are
   byte-identical for every job count and reproducible from
   (seed, corpus snapshot). *)

let batch = 8
let plateau = 3

type guided_report = {
  gr_options : options;
  gr_rounds : int;
  gr_checked : int;
  gr_pass : (string * int) list;
  gr_failures : (int * string * string) list; (* slot, oracle, detail *)
  gr_min : violation option;
  gr_novelty : int; (* total coverage gain over the campaign *)
  gr_corpus : Cov.Corpus.t;
}

type guided_spec = { gs_slot : int; gs_prog : int64; gs_check : int64 }

let guided_spec_for opts ~ranked idx =
  let fresh () =
    let s = program_seed opts idx in
    { gs_slot = idx; gs_prog = s; gs_check = s }
  in
  if idx land 1 = 0 then fresh ()
  else
    match ranked with
    | [] -> fresh ()
    | top :: _ ->
      let pool = List.filteri (fun i _ -> i < 3) ranked in
      let parent =
        Option.value ~default:top (List.nth_opt pool (idx / 2 mod List.length pool))
      in
      let prog = parent.Cov.Corpus.en_seed in
      { gs_slot = idx; gs_prog = prog; gs_check = Par.seed ~base:prog ~index:idx }

let run_guided ?budget_s ?(corpus = Cov.Corpus.create ())
    (opts : options) : guided_report =
  let opts =
    { opts with o_count = max 0 opts.o_count; o_jobs = max 1 opts.o_jobs }
  in
  let t0 = Obs.Clock.ticks () in
  let reg = Obs.Metrics.global () in
  let check_spec sp =
    let program = Gen.generate ~seed:sp.gs_prog in
    let verdicts = Oracle.check ?mutate:opts.o_mutate ~seed:sp.gs_check program in
    let cov = Oracle.coverage ~seed:sp.gs_check program in
    (verdicts, cov)
  in
  let all = ref [] (* (spec, verdicts) newest first *) in
  let novelty = ref 0 in
  let checked = ref 0 in
  let dry = ref 0 in
  let round = ref 0 in
  let stop = ref false in
  while not !stop do
    let n = min batch (opts.o_count - !checked) in
    let over_budget =
      match budget_s with
      | Some b -> Obs.Clock.elapsed_s ~since:t0 > b
      | None -> false
    in
    if n <= 0 || over_budget then stop := true
    else begin
      let ranked = Cov.Corpus.ranked corpus in
      let base = !round * batch in
      let specs =
        List.init n (fun j -> guided_spec_for opts ~ranked (base + j))
      in
      let results = Par.map ~jobs:opts.o_jobs specs check_spec in
      let round_gain = ref 0 in
      List.iter2
        (fun sp (verdicts, cov) ->
          incr checked;
          all := (sp, verdicts) :: !all;
          let gain = Cov.Corpus.note corpus ~seed:sp.gs_prog ~prefix:[] cov in
          round_gain := !round_gain + gain)
        specs results;
      novelty := !novelty + !round_gain;
      if !round_gain = 0 then begin
        incr dry;
        if !dry >= plateau then stop := true
      end
      else dry := 0;
      incr round
    end
  done;
  Obs.Metrics.incr ~n:!checked reg "fuzz/guided/checked";
  Obs.Metrics.incr ~n:!novelty reg "fuzz/guided/novelty";
  let all = List.rev !all in
  let pass =
    List.map
      (fun name ->
        let n =
          List.fold_left
            (fun acc (_, vs) ->
              match List.assoc_opt name vs with
              | Some Oracle.Pass -> acc + 1
              | Some (Oracle.Fail _) | None -> acc)
            0 all
        in
        (name, n))
      Oracle.names
  in
  let failures =
    List.filter_map
      (fun (sp, vs) ->
        Option.map
          (fun (oracle, detail) -> (sp, oracle, detail))
          (List.find_map
             (fun (n, v) ->
               match v with Oracle.Pass -> None | Oracle.Fail d -> Some (n, d))
             vs))
      all
  in
  let gr_min =
    match failures with
    | [] -> None
    | (sp, oracle, _) :: _ ->
      let program = Gen.generate ~seed:sp.gs_prog in
      let keep =
        Oracle.fails_oracle ?mutate:opts.o_mutate ~seed:sp.gs_check ~oracle
      in
      let minimal, steps = Shrink.shrink ~keep program in
      let detail =
        match
          List.assoc_opt oracle
            (Oracle.check ?mutate:opts.o_mutate ~seed:sp.gs_check minimal)
        with
        | Some (Oracle.Fail d) -> d
        | Some Oracle.Pass | None -> "(detail unavailable on shrunk program)"
      in
      Some
        {
          vi_index = sp.gs_slot;
          vi_oracle = oracle;
          vi_detail = detail;
          vi_original_size = Jir.Ast.program_size program;
          vi_shrunk_size = Jir.Ast.program_size minimal;
          vi_shrink_steps = steps;
          vi_source = Gen.to_source minimal;
        }
  in
  {
    gr_options = opts;
    gr_rounds = !round;
    gr_checked = !checked;
    gr_pass = pass;
    gr_failures = List.map (fun (sp, o, d) -> (sp.gs_slot, o, d)) failures;
    gr_min;
    gr_novelty = !novelty;
    gr_corpus = corpus;
  }

let guided_ok r = r.gr_failures = []

let guided_report_to_string (r : guided_report) : string =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "crucible (guided): %d/%d checks in %d rounds (batch %d, plateau %d), seed \
     %Ld\n"
    r.gr_checked r.gr_options.o_count r.gr_rounds batch plateau
    r.gr_options.o_seed;
  Printf.bprintf b "  coverage: %d features (%d corpus entries, novelty %d)\n"
    (Cov.Set.total (Cov.Corpus.coverage r.gr_corpus))
    (Cov.Corpus.size r.gr_corpus) r.gr_novelty;
  Printf.bprintf b "  %-18s %6s %6s\n" "oracle" "pass" "fail";
  List.iter
    (fun (name, pass) ->
      let fail =
        List.length
          (List.filter (fun (_, o, _) -> String.equal o name) r.gr_failures)
      in
      Printf.bprintf b "  %-18s %6d %6d\n" name pass fail)
    r.gr_pass;
  (match r.gr_min with
  | None -> Buffer.add_string b "no oracle violations\n"
  | Some v ->
    Printf.bprintf b "VIOLATION at slot #%d (oracle %s)\n" v.vi_index v.vi_oracle;
    Printf.bprintf b "  %s\n" v.vi_detail;
    Printf.bprintf b
      "  minimal counterexample (size %d -> %d in %d shrink steps):\n"
      v.vi_original_size v.vi_shrunk_size v.vi_shrink_steps;
    Buffer.add_string b v.vi_source);
  Buffer.contents b

let report_to_string (r : report) : string =
  let b = Buffer.create 1024 in
  Printf.bprintf b "crucible: %d programs, seed %Ld, %d oracles%s\n"
    r.rp_options.o_count r.rp_options.o_seed
    (List.length Oracle.names)
    (match r.rp_options.o_mutate with
    | Some m -> Printf.sprintf " [mutation: %s]" (Oracle.mutation_to_string m)
    | None -> "");
  Printf.bprintf b "  %-18s %6s %6s\n" "oracle" "pass" "fail";
  List.iter
    (fun (name, pass) ->
      let fail =
        List.length (List.filter (fun (_, o, _) -> String.equal o name) r.rp_failures)
      in
      (* programs whose earlier oracle already failed are not double-counted *)
      Printf.bprintf b "  %-18s %6d %6d\n" name pass fail)
    r.rp_pass;
  (match r.rp_min with
  | None -> Buffer.add_string b "no oracle violations\n"
  | Some v ->
    Printf.bprintf b "VIOLATION at program #%d (oracle %s)\n" v.vi_index v.vi_oracle;
    Printf.bprintf b "  %s\n" v.vi_detail;
    Printf.bprintf b
      "  minimal counterexample (size %d -> %d in %d shrink steps):\n"
      v.vi_original_size v.vi_shrunk_size v.vi_shrink_steps;
    Buffer.add_string b v.vi_source;
    match r.rp_failures with
    | _ :: (_ :: _ as further) ->
      Printf.bprintf b "(%d further violating programs: %s)\n"
        (List.length further)
        (String.concat ", "
           (List.map (fun (i, _, _) -> "#" ^ string_of_int i) further))
    | [] | [ _ ] -> ());
  Buffer.contents b
