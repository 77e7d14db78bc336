(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (Sections 8 and 9, Appendices J, K, L).

    Usage:  dune exec bench/main.exe [--] [target ...]
    Targets: fig8a fig8b fig8c fig9 coverage fig10a fig10b fig10c fig11
             table2 table3 fig12 fig13 fig14 sec83 micro ablation all

    Absolute numbers differ from the paper (our substrate is a simulated
    corpus and interpreter, not GitHub + Azure), but the comparative
    shape — which method wins, by roughly what factor, where strategies
    escalate — is the reproduction target (see EXPERIMENTS.md). *)

let methods = Autotype_core.Ranking.all_methods

let method_name = Autotype_core.Ranking.method_to_string

(* ------------------------------------------------------------------ *)
(* Table rendering                                                      *)
(* ------------------------------------------------------------------ *)

let print_rule widths =
  print_string "+";
  List.iter (fun w -> print_string (String.make (w + 2) '-' ^ "+")) widths;
  print_newline ()

let print_row widths cells =
  print_string "|";
  List.iter2
    (fun w c ->
      let pad = max 0 (w - String.length c) in
      Printf.printf " %s%s |" c (String.make pad ' '))
    widths cells;
  print_newline ()

let print_table header rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  print_rule widths;
  print_row widths header;
  print_rule widths;
  List.iter (print_row widths) rows;
  print_rule widths

let pct f = Printf.sprintf "%.0f%%" (100.0 *. f)
let f2 f = Printf.sprintf "%.2f" f

let section title =
  Printf.printf "\n=== %s ===\n\n" title

(* ------------------------------------------------------------------ *)
(* Shared state: the full-benchmark results are expensive, compute once *)
(* ------------------------------------------------------------------ *)

let full_results = ref None

let get_full_results () =
  match !full_results with
  | Some r -> r
  | None ->
    Printf.printf "[running full %d-type benchmark...]\n%!"
      (List.length Semtypes.Registry.covered);
    let t0 = Unix.gettimeofday () in
    let r = Eval.Experiments.full_benchmark () in
    Printf.printf "[benchmark done in %.1fs]\n%!" (Unix.gettimeofday () -. t0);
    full_results := Some r;
    r

(* ------------------------------------------------------------------ *)
(* Figure 8                                                             *)
(* ------------------------------------------------------------------ *)

let fig8a () =
  section "Figure 8(a): precision@K comparison (112-type benchmark)";
  let results = get_full_results () in
  let ks = [ 1; 2; 3; 4; 5; 6; 7 ] in
  let header = "method" :: List.map (fun k -> Printf.sprintf "k=%d" k) ks in
  let rows =
    List.map
      (fun m ->
        method_name m
        :: List.map (fun k -> pct (Eval.Benchmark.precision_at_k results m k)) ks)
      methods
  in
  print_table header rows

let fig8b () =
  section "Figure 8(b): NDCG comparison";
  let results = get_full_results () in
  let ps = [ 1; 2; 3; 4; 5; 6; 7 ] in
  let header = "method" :: List.map (fun p -> Printf.sprintf "p=%d" p) ps in
  let rows =
    List.map
      (fun m ->
        method_name m
        :: List.map (fun p -> f2 (Eval.Benchmark.ndcg_at_p results m p)) ps)
      methods
  in
  print_table header rows

let fig8c () =
  section "Figure 8(c): relative recall (pooled top-7)";
  let results = get_full_results () in
  let recalls = Eval.Benchmark.relative_recall results methods in
  print_table [ "method"; "relative recall" ]
    (List.map (fun (m, r) -> [ m; pct r ]) recalls)

(* ------------------------------------------------------------------ *)
(* Figure 9 + coverage                                                  *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  section "Figure 9: distribution of relevant functions per covered type";
  let results = get_full_results () in
  let report = Eval.Experiments.coverage results in
  let counts = List.map snd report.Eval.Experiments.relevant_per_type in
  let buckets = [ (0, 0); (1, 2); (3, 5); (6, 9); (10, 15); (16, 40) ] in
  let rows =
    List.map
      (fun (lo, hi) ->
        let n = List.length (List.filter (fun c -> c >= lo && c <= hi) counts) in
        [ (if lo = hi then string_of_int lo
           else Printf.sprintf "%d-%d" lo hi);
          string_of_int n ])
      buckets
  in
  print_table [ "#relevant functions"; "#types" ] rows;
  let found = List.filter (fun c -> c > 0) counts in
  Printf.printf "average relevant functions per found type: %.1f (paper: 7.4)\n"
    (Eval.Metrics.mean (List.map float_of_int found));
  let zeros =
    List.filter_map
      (fun (id, n) -> if n = 0 then Some id else None)
      report.Eval.Experiments.relevant_per_type
  in
  if zeros <> [] then
    Printf.printf "types with no relevant function found: %s\n"
      (String.concat ", " zeros)

let coverage () =
  section "Section 8.2.2: coverage analysis";
  let results = get_full_results () in
  let report = Eval.Experiments.coverage results in
  Printf.printf "benchmark types:                %d (paper: 112)\n"
    report.Eval.Experiments.n_types;
  Printf.printf "types with functions found:     %d (paper: 84)\n"
    report.Eval.Experiments.n_found;
  Printf.printf "no relevant code found:         %d\n"
    report.Eval.Experiments.n_no_code;
  Printf.printf "code only in other languages:   %d (paper: 12)\n"
    report.Eval.Experiments.n_other_language;
  Printf.printf "complex invocation not handled: %d (paper: 4)\n"
    report.Eval.Experiments.n_complex_invocation

(* ------------------------------------------------------------------ *)
(* Figure 10: sensitivity                                               *)
(* ------------------------------------------------------------------ *)

let p_at_k_row results k =
  pct (Eval.Benchmark.precision_at_k results Autotype_core.Ranking.DNF_S k)

let fig10a () =
  section "Figure 10(a): varying the number of positive examples (20 popular types)";
  let per_n = Eval.Experiments.sensitivity_n_examples () in
  let header = "examples" :: List.map (fun k -> Printf.sprintf "k=%d" k) [ 1; 2; 3; 4 ] in
  let rows =
    List.map
      (fun (n, results) ->
        string_of_int n :: List.map (p_at_k_row results) [ 1; 2; 3; 4 ])
      per_n
  in
  print_table header rows

let fig10b () =
  section "Figure 10(b): noise in the positive examples";
  let per_frac = Eval.Experiments.sensitivity_noise () in
  let header = "noise" :: List.map (fun k -> Printf.sprintf "k=%d" k) [ 1; 2; 3; 4 ] in
  let rows =
    List.map
      (fun (frac, results) ->
        pct frac :: List.map (p_at_k_row results) [ 1; 2; 3; 4 ])
      per_frac
  in
  print_table header rows

let fig10c () =
  section "Figure 10(c): negative-example generation strategies";
  let per_variant = Eval.Experiments.sensitivity_negatives () in
  let header = "strategy" :: List.map (fun k -> Printf.sprintf "k=%d" k) [ 1; 2; 3; 4 ] in
  let rows =
    List.map
      (fun (v, results) ->
        Eval.Experiments.neg_variant_to_string v
        :: List.map (p_at_k_row results) [ 1; 2; 3; 4 ])
      per_variant
  in
  print_table header rows

(* ------------------------------------------------------------------ *)
(* Section 9: type detection in tables                                  *)
(* ------------------------------------------------------------------ *)

let table_detection_results = ref None

let get_detection () =
  match !table_detection_results with
  | Some r -> r
  | None ->
    Printf.printf "[generating web-table corpus and running detection...]\n%!";
    let t0 = Unix.gettimeofday () in
    let columns = Tablecorpus.Webtables.generate () in
    let results = Tablecorpus.Detect.run columns in
    Printf.printf "[detection done in %.1fs over %d columns]\n%!"
      (Unix.gettimeofday () -. t0)
      (List.length columns);
    table_detection_results := Some results;
    results

let fig11 () =
  section "Figure 11: F-score on column-type detection";
  let results = get_detection () in
  let types =
    List.sort_uniq String.compare
      (List.map (fun r -> r.Tablecorpus.Detect.type_id) results)
  in
  let rows =
    List.filter_map
      (fun ty ->
        let for_m m =
          List.find_opt
            (fun r ->
              r.Tablecorpus.Detect.type_id = ty
              && r.Tablecorpus.Detect.method_ = m)
            results
        in
        match (for_m Tablecorpus.Detect.DNF_S, for_m Tablecorpus.Detect.KW,
               for_m Tablecorpus.Detect.REGEX) with
        | Some d, Some k, Some x ->
          if d.Tablecorpus.Detect.true_positives = 0
             && k.Tablecorpus.Detect.true_positives = 0
             && x.Tablecorpus.Detect.true_positives = 0
          then None  (* the 5 popular types with no valid columns *)
          else
            Some
              [ ty; f2 d.Tablecorpus.Detect.f1; f2 x.Tablecorpus.Detect.f1;
                f2 k.Tablecorpus.Detect.f1 ]
        | _ -> None)
      types
  in
  print_table [ "type"; "DNF-S F1"; "REGEX F1"; "KW F1" ] rows

let table2 () =
  section "Table 2: per-type true-positive columns (precision in parens)";
  let results = get_detection () in
  let types =
    (* Present in Table 2 order by DNF-S true positives, descending. *)
    List.sort_uniq String.compare
      (List.map (fun r -> r.Tablecorpus.Detect.type_id) results)
    |> List.sort (fun a b ->
           let tp ty =
             List.fold_left
               (fun acc r ->
                 if r.Tablecorpus.Detect.type_id = ty
                    && r.Tablecorpus.Detect.method_ = Tablecorpus.Detect.DNF_S
                 then acc + r.Tablecorpus.Detect.true_positives
                 else acc)
               0 results
           in
           compare (tp b) (tp a))
  in
  let cell ty m =
    match
      List.find_opt
        (fun r ->
          r.Tablecorpus.Detect.type_id = ty && r.Tablecorpus.Detect.method_ = m)
        results
    with
    | Some r when r.Tablecorpus.Detect.detected > 0 ->
      Printf.sprintf "%d (%.2f)" r.Tablecorpus.Detect.true_positives
        r.Tablecorpus.Detect.precision
    | Some _ -> "0 (-)"
    | None -> "-"
  in
  let rows =
    List.filter_map
      (fun ty ->
        let d = cell ty Tablecorpus.Detect.DNF_S
        and k = cell ty Tablecorpus.Detect.KW
        and x = cell ty Tablecorpus.Detect.REGEX in
        if d = "0 (-)" && k = "0 (-)" && x = "0 (-)" then None
        else Some [ ty; d; k; x ])
      types
  in
  print_table [ "type"; "DNF-S"; "KW"; "REGEX" ] rows

let table3 () =
  section "Table 3: semantic transformations harvested from top functions";
  List.iter
    (fun type_id ->
      let ty = Semtypes.Registry.find_exn type_id in
      match Eval.Experiments.transformations_for ty with
      | None -> Printf.printf "%-14s (no function found)\n" type_id
      | Some (func, _positives, ts) ->
        let vars =
          List.map
            (fun t -> t.Autotype_core.Transform.variable)
            ts
        in
        Printf.printf "%-14s via %s\n               -> %s\n" type_id func
          (if vars = [] then "(none)" else String.concat ", " vars))
    [ "email"; "url"; "phone"; "isbn"; "ipv4"; "credit-card"; "us-zipcode";
      "vin"; "datetime"; "mac-address"; "address"; "iban"; "country-code";
      "upc"; "stock-ticker"; "chemical-formula"; "hex-color"; "person-name";
      "ipv6"; "doi" ]

(* ------------------------------------------------------------------ *)
(* Appendices                                                           *)
(* ------------------------------------------------------------------ *)

let fig12 () =
  section "Figure 12 / Appendix J: sensitivity to input keywords";
  let per_type = Eval.Experiments.sensitivity_keywords () in
  let header = [ "type"; "keyword"; "P@1"; "P@2"; "P@3"; "P@4" ] in
  let rows =
    List.concat_map
      (fun (type_id, per_kw) ->
        List.map
          (fun (kw, result) ->
            let graded =
              Option.value
                (List.assoc_opt Autotype_core.Ranking.DNF_S
                   result.Eval.Benchmark.per_method)
                ~default:[]
            in
            let rels =
              List.map (fun g -> g.Eval.Benchmark.relevance) graded
            in
            type_id :: kw
            :: List.map (fun k -> pct (Eval.Metrics.precision_at_k rels k))
                 [ 1; 2; 3; 4 ])
          per_kw)
      per_type
  in
  print_table header rows

let fig13 () =
  section "Figure 13 / Appendix K: LR with varying #examples vs DNF-S";
  let dnf20 =
    List.map
      (fun ty -> Eval.Benchmark.run_type ty)
      (Eval.Experiments.popular_types ())
  in
  let lr = Eval.Experiments.lr_sensitivity () in
  let header = "method" :: List.map (fun k -> Printf.sprintf "k=%d" k) [ 1; 2; 3; 4 ] in
  let rows =
    [ "DNF-S #pos=20"
      :: List.map
           (fun k ->
             pct (Eval.Benchmark.precision_at_k dnf20 Autotype_core.Ranking.DNF_S k))
           [ 1; 2; 3; 4 ] ]
    @ List.map
        (fun (n, results) ->
          Printf.sprintf "LR #pos=%d" n
          :: List.map
               (fun k ->
                 pct (Eval.Benchmark.precision_at_k results Autotype_core.Ranking.LR k))
               [ 1; 2; 3; 4 ])
        lr
  in
  print_table header rows

let fig14 () =
  section "Figure 14 / Appendix L: running-time distribution";
  let results = get_full_results () in
  let minutes =
    List.map (fun r -> r.Eval.Benchmark.simulated_minutes) results
  in
  let buckets =
    [ (0.0, 10.0); (10.0, 20.0); (20.0, 30.0); (30.0, 40.0); (40.0, 50.0);
      (50.0, 59.9); (59.9, 61.0) ]
  in
  let rows =
    List.map
      (fun (lo, hi) ->
        let n =
          List.length (List.filter (fun m -> m >= lo && m < hi) minutes)
        in
        [ (if lo >= 59.9 then ">=60 min (capped)"
           else Printf.sprintf "%.0f-%.0f min" lo hi);
          string_of_int n ])
      buckets
  in
  print_table [ "simulated running time"; "#types" ] rows;
  let sorted = List.sort compare minutes in
  let nth_pct p =
    List.nth sorted (p * (List.length sorted - 1) / 100)
  in
  Printf.printf
    "min/median/max simulated: %.1f / %.1f / %.1f minutes\n"
    (nth_pct 0) (nth_pct 50) (nth_pct 100);
  Printf.printf
    "(simulated work-units: interpreter steps scaled to the paper's 60-minute cap;\n\
    \ real elapsed total: %.1fs)\n"
    (List.fold_left (fun acc r -> acc +. r.Eval.Benchmark.elapsed_s) 0.0 results)

let sec83 () =
  section "Section 8.3: PBE-style (TDE) comparison, simulated";
  let per_type = Eval.Experiments.pbe_comparison () in
  let found = List.filter snd per_type in
  Printf.printf
    "TDE-style exact-output PBE finds functions for %d of %d popular types\n"
    (List.length found) (List.length per_type);
  Printf.printf "(paper: 4 of 20 — binary True/False outputs underconstrain PBE)\n";
  Printf.printf "types found: %s\n"
    (String.concat ", " (List.map fst found))

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper                                           *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation: k-conciseness and theta budget (DESIGN.md section 5)";
  let popular = Eval.Experiments.popular_types () in
  let run_with k theta =
    let pipeline = { Autotype_core.Pipeline.default_config with k; theta } in
    let config = { Eval.Benchmark.default_config with pipeline } in
    List.map (fun ty -> Eval.Benchmark.run_type ~config ty) popular
  in
  let header = [ "configuration"; "P@1"; "P@3" ] in
  let rows =
    List.map
      (fun (label, k, theta) ->
        let results = run_with k theta in
        [ label;
          pct (Eval.Benchmark.precision_at_k results Autotype_core.Ranking.DNF_S 1);
          pct (Eval.Benchmark.precision_at_k results Autotype_core.Ranking.DNF_S 3) ])
      [ ("k=1 theta=0.3", 1, 0.3); ("k=2 theta=0.3", 2, 0.3);
        ("k=3 theta=0.3 (paper)", 3, 0.3); ("k=3 theta=0.1", 3, 0.1);
        ("k=3 theta=0.5", 3, 0.5) ]
  in
  print_table header rows

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the core algorithms                     *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Bechamel micro-benchmarks (core algorithm costs)";
  let open Bechamel in
  let ty = Semtypes.Registry.find_exn "credit-card" in
  let positives = Semtypes.Registry.positive_examples ~n:20 ~seed:11 ty in
  let negatives =
    Autotype_core.Negative.generate ~seed:11 Autotype_core.Negative.S1 positives
  in
  let cand =
    List.find
      (fun c -> c.Repolib.Candidate.func_name = "is_valid_card")
      (Corpus.all_candidates ())
  in
  let traced =
    Autotype_core.Ranking.trace_candidate cand ~positives ~negatives
  in
  let pos_f, neg_f = Autotype_core.Ranking.featurized traced in
  let inst = Autotype_core.Dnf.make_instance ~positives:pos_f ~negatives:neg_f in
  let test_interp =
    Test.make ~name:"interp: luhn validation run"
      (Staged.stage (fun () ->
           ignore (Repolib.Driver.run_safe cand "4111111111111111")))
  in
  let test_mutate =
    Test.make ~name:"negative: S1 mutation of 20 examples"
      (Staged.stage (fun () ->
           ignore
             (Autotype_core.Negative.generate ~seed:7 Autotype_core.Negative.S1
                positives)))
  in
  let test_dnf =
    Test.make ~name:"dnf: best-k-concise cover (k=3)"
      (Staged.stage (fun () ->
           ignore (Autotype_core.Dnf.best_k_concise ~k:3 ~theta:0.3 inst)))
  in
  let test_regex =
    Test.make ~name:"regexlite: ipv4 pattern full match"
      (Staged.stage
         (let re =
            Regexlite.parse
              "^(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])(\\.(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])){3}$"
          in
          fun () -> ignore (Regexlite.full_match re "192.168.254.254")))
  in
  let run_test test =
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false
        ~predictors:[| Measure.run |]
    in
    let stats = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    Hashtbl.iter
      (fun name v ->
        match Analyze.OLS.estimates v with
        | Some (est :: _) -> Printf.printf "%-44s %14.1f ns/run\n" name est
        | Some [] | None -> Printf.printf "%-44s (no estimate)\n" name)
      stats
  in
  List.iter run_test [ test_interp; test_mutate; test_dnf; test_regex ]

(* ------------------------------------------------------------------ *)
(* Pipeline stage timings → BENCH_pipeline.json                         *)
(* ------------------------------------------------------------------ *)

(* Per-stage wall-clock baseline for optimisation PRs: runs the full
   synthesis pipeline for a few representative types under telemetry,
   once sequentially (jobs=1) and once on the execution engine
   (--jobs N, default auto), verifies the ranked outputs are identical,
   and writes machine-readable timings + speedups.  Exits non-zero when
   the parallel run diverges from the sequential one. *)

let bench_jobs = ref 0  (* 0 = auto (Exec.default_jobs) *)

let pipeline_stage_names =
  [ "pipeline.search"; "pipeline.analyze"; "pipeline.staticcheck";
    "pipeline.probe"; "pipeline.negatives"; "pipeline.trace";
    "pipeline.rank"; "pipeline.synthesize" ]

(* Everything observable about an outcome that optimisation must not
   change: strategy, negative set, and the ranked list down to exact
   scores and DNFs. *)
let outcome_fingerprint (o : Autotype_core.Pipeline.outcome) : string =
  let strategy =
    match o.Autotype_core.Pipeline.strategy_used with
    | Some s -> Autotype_core.Negative.strategy_to_string s
    | None -> "-"
  in
  let ranked =
    List.map
      (fun (r : Autotype_core.Ranking.ranked) ->
        Printf.sprintf "%s|%s|%.17g"
          (Repolib.Candidate.id
             r.Autotype_core.Ranking.traced.Autotype_core.Ranking.candidate)
          (Autotype_core.Dnf.to_string r.Autotype_core.Ranking.dnf)
          r.Autotype_core.Ranking.score)
      o.Autotype_core.Pipeline.ranked
  in
  String.concat "\n"
    ((strategy :: o.Autotype_core.Pipeline.negatives) @ ranked)

(* One telemetry-instrumented pass over [type_ids]; returns per-type
   fingerprints, wall-clock, per-stage totals, and the counter
   snapshot. *)
let pipeline_pass ?pool ?(staticcheck = true) type_ids =
  Telemetry.reset ();
  Telemetry.enable ();
  let config = { Autotype_core.Pipeline.default_config with staticcheck } in
  let t0 = Unix.gettimeofday () in
  let fingerprints =
    List.map
      (fun id ->
        let ty = Semtypes.Registry.find_exn id in
        let positives =
          Semtypes.Registry.positive_examples ~n:20 ~seed:11 ty
        in
        let outcome =
          Autotype_core.Pipeline.synthesize ~config ?pool
            ~index:(Corpus.search_index ())
            ~query:ty.Semtypes.Registry.name ~positives ()
        in
        (id, outcome_fingerprint outcome))
      type_ids
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Telemetry.disable ();
  let stage_stats =
    List.map
      (fun name ->
        let spans = Telemetry.spans_named name in
        let total_s = Int64.to_float (Telemetry.total_ns name) /. 1e9 in
        (name, List.length spans, total_s))
      pipeline_stage_names
  in
  (fingerprints, elapsed, stage_stats, Telemetry.snapshot ())

let stage_total name stats =
  List.fold_left
    (fun acc (n, _, total_s) -> if n = name then total_s else acc)
    0.0 stats

(* Re-run a pass [n] times and keep the run with the smallest
   trace-stage time.  Single-pass stage deltas are dominated by which
   pass happened to run first (the parser, corpus-index, scope and
   compile caches all fill on the first pass), so any comparison
   between configurations uses best-of-n on a warm process instead. *)
let best_pass ?(n = 3) f =
  let rec go best left =
    if left = 0 then snd (Option.get best)
    else
      let ((_, _, stages, _) as p) = f () in
      let t = stage_total "pipeline.trace" stages in
      let best =
        match best with Some (bt, _) when bt <= t -> best | _ -> Some (t, p)
      in
      go best (left - 1)
  in
  go None n

let print_pass_report label (elapsed, stage_stats, snap) =
  Printf.printf "\n-- %s --\n" label;
  print_table
    [ "stage"; "spans"; "total" ]
    (List.map
       (fun (name, n, total_s) ->
         [ name; string_of_int n; Printf.sprintf "%.1fms" (1e3 *. total_s) ])
       stage_stats);
  Printf.printf "interpreter: %d runs, %d steps, %d branch events\n"
    (Telemetry.find_counter snap "interp.runs")
    (Telemetry.find_counter snap "interp.steps")
    (Telemetry.find_counter snap "interp.branch_events");
  Printf.printf
    "trace cache: %d hits, %d misses; %d candidates pruned\n"
    (Telemetry.find_counter snap "ranking.trace_cache_hits")
    (Telemetry.find_counter snap "ranking.trace_cache_misses")
    (Telemetry.find_counter snap "pipeline.candidates_pruned");
  Printf.printf "staticcheck: %d candidates pruned, %d diagnostics\n"
    (Telemetry.find_counter snap "staticcheck.pruned")
    (Telemetry.find_counter snap "staticcheck.diagnostics");
  Printf.printf "wall-clock: %.2fs\n" elapsed

(* Deterministic JSON for the BENCH files: object keys are emitted
   sorted and every float is formatted %.6f, so two runs differ only
   where the measurements differ — never in layout. *)
type jv =
  | J_int of int
  | J_float of float
  | J_bool of bool
  | J_str of string
  | J_raw of string  (** pre-rendered JSON (already deterministic) *)
  | J_list of jv list
  | J_obj of (string * jv) list

let rec jv_to_string = function
  | J_int i -> string_of_int i
  | J_float f -> Printf.sprintf "%.6f" f
  | J_bool b -> string_of_bool b
  | J_str s ->
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  | J_raw s -> s
  | J_list xs -> "[" ^ String.concat "," (List.map jv_to_string xs) ^ "]"
  | J_obj kvs ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> jv_to_string (J_str k) ^ ":" ^ jv_to_string v)
           (List.sort (fun (a, _) (b, _) -> String.compare a b) kvs))
    ^ "}"

let pass_json (elapsed, stage_stats, snap) =
  J_obj
    [ ("elapsed_s", J_float elapsed);
      ( "stages",
        J_obj
          (List.map
             (fun (name, n, total_s) ->
               ( name,
                 J_obj
                   [ ("spans", J_int n); ("total_s", J_float total_s) ] ))
             stage_stats) );
      ( "counters",
        J_obj
          (List.map (fun (name, v) -> (name, J_int v)) snap.Telemetry.counters)
      ) ]

(* ------------------------------------------------------------------ *)
(* Compile/serve split: cold-compile vs warm-serve                      *)
(* ------------------------------------------------------------------ *)

(* The validation workload a served model answers: held-out positives
   plus sampled true negatives, ~250 values per type. *)
let serve_workload ty =
  Semtypes.Registry.positive_examples ~n:50 ~seed:99 ty
  @ Eval.Benchmark.negative_test_pool ~n:200 ~seed:42 ty

type serve_stats = {
  sv_n_models : int;
  sv_n_validations : int;
  sv_cold_elapsed : float;  (** compile + answer the workload, seconds *)
  sv_warm_elapsed : float;  (** open registry + answer the workload *)
  sv_cold_runs : int;  (** interp.runs during the cold pass *)
  sv_warm_runs : int;
  sv_warm_search_spans : int;  (** must be 0: serving never searches *)
  sv_warm_analyze_spans : int;  (** must be 0: serving never analyzes *)
  sv_warm_loads : int;
  sv_cache_hits : int;
  sv_cache_misses : int;
  sv_parity : bool;  (** served verdicts byte-match the live synthesis *)
  sv_lat_p50_ms : float;  (** per-value warm serve latency percentiles *)
  sv_lat_p95_ms : float;
  sv_lat_p99_ms : float;
  sv_sketch_p50_ms : float;
      (** same quantiles from the streaming sketch, merged over shards *)
  sv_sketch_p95_ms : float;
  sv_sketch_p99_ms : float;
  sv_sketch_ok : bool;  (** sketch within 5% of nearest-rank *)
  sv_p99_flight_off_ms : float;  (** warm p99 with the recorder disabled *)
  sv_p99_flight_on_ms : float;  (** warm p99 with the recorder always-on *)
  sv_flight_ok : bool;  (** recorder overhead under the 10% budget *)
  sv_slo : Telemetry.Slo.report;
  sv_warm_snapshot_json : string;  (** Expose.render_json of the warm pass *)
  sv_fastpath_hits : int;  (** compiled-summary answers in the warm pass *)
  sv_fastpath_fallbacks : int;  (** oversize values routed to the interp *)
  sv_compiled_models : int;  (** artifacts that shipped a usable summary *)
  sv_routes_identical : bool;  (** fast vs interp verdicts byte-match *)
  sv_fast_p50_ms : float;  (** per-value latency, compiled route *)
  sv_fast_p99_ms : float;
  sv_interp_p50_ms : float;  (** per-value latency, interpreter route *)
  sv_interp_p99_ms : float;
}

let h_warm_latency = Telemetry.histogram "bench.warm_value_latency_ms"

(* Nearest-rank percentile over per-value latencies (p in [0,100]). *)
let percentile p (xs : float array) =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

(* Cold pass: full pipeline per type, persist the artifact, answer the
   workload with the in-memory synthesis.  Warm pass: re-open the
   registry (a fresh handle stands in for a fresh process), serve every
   model, answer the same workload.  Verdict vectors must byte-match. *)
let serve_pass type_ids =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "autotype-bench-models-%d" (Unix.getpid ()))
  in
  let fail msg = prerr_endline ("serve bench: " ^ msg); exit 1 in
  Telemetry.reset ();
  Telemetry.enable ();
  let t0 = Unix.gettimeofday () in
  let registry =
    match Model.Registry.create_dir dir with Ok r -> r | Error m -> fail m
  in
  let cold_verdicts =
    List.map
      (fun id ->
        let ty = Semtypes.Registry.find_exn id in
        let positives =
          Semtypes.Registry.positive_examples ~n:20 ~seed:11 ty
        in
        let compiled =
          Autotype_core.Pipeline.compile ~index:(Corpus.search_index ())
            ~query:ty.Semtypes.Registry.name ~positives ()
        in
        let artifact =
          match Model.Artifact.of_compiled compiled with
          | Some a -> Model.Artifact.with_type_id id a
          | None -> fail ("no function synthesized for " ^ id)
        in
        (match Model.Registry.save registry artifact with
         | Ok _ -> ()
         | Error m -> fail m);
        let syn = Model.Artifact.to_synthesis artifact in
        (id,
         List.map
           (Autotype_core.Synthesis.validate syn)
           (serve_workload ty)))
      type_ids
  in
  let sv_cold_elapsed = Unix.gettimeofday () -. t0 in
  Telemetry.disable ();
  let cold_snap = Telemetry.snapshot () in
  let sv_cold_runs = Telemetry.find_counter cold_snap "interp.runs" in
  Telemetry.reset ();
  Telemetry.enable ();
  let t1 = Unix.gettimeofday () in
  let registry =
    match Model.Registry.open_dir dir with Ok r -> r | Error m -> fail m
  in
  let latencies_ms = ref [] in
  let warm_verdicts =
    List.map
      (fun id ->
        let ty = Semtypes.Registry.find_exn id in
        let entry =
          match Model.Registry.find registry id with
          | Ok e -> e
          | Error e -> fail (Model.Artifact.load_error_to_string e)
        in
        (* One request context per served column, as the daemon would
           mint: every span/flight event of this type's workload is
           attributable to it.  Each value takes the serve route, which
           answers from the compiled summary when the artifact carries
           one, so the warm pass exercises the production fast path. *)
        let model = Tablecorpus.Detect.Loaded entry in
        Telemetry.Context.with_context (Telemetry.Context.root ())
        @@ fun () ->
        (id,
         List.map
           (fun v ->
             let t = Telemetry.now_ns () in
             let verdict =
               Tablecorpus.Detect.serve model [ v ]
               = [ Tablecorpus.Detect.V_valid ]
             in
             let lat_ms =
               Int64.to_float (Int64.sub (Telemetry.now_ns ()) t) /. 1e6
             in
             Telemetry.observe h_warm_latency lat_ms;
             latencies_ms := lat_ms :: !latencies_ms;
             verdict)
           (serve_workload ty)))
      type_ids
  in
  let lat = Array.of_list !latencies_ms in
  let sv_warm_elapsed = Unix.gettimeofday () -. t1 in
  Telemetry.disable ();
  let warm_snap = Telemetry.snapshot () in
  let warm_hist =
    match
      List.assoc_opt "bench.warm_value_latency_ms"
        warm_snap.Telemetry.histograms
    with
    | Some h -> h
    | None -> fail "warm pass recorded no latency histogram"
  in
  (* The sketch answers the same nearest-rank question with bounded
     relative error (<= sqrt(gamma)-1 ~ 3.9%), so 5% is a real bound,
     not a tolerance picked to pass. *)
  let close sketch exact =
    Float.abs (sketch -. exact) /. Float.max exact 1e-9 <= 0.05
  in
  let lat_p50 = percentile 50.0 lat in
  let lat_p95 = percentile 95.0 lat in
  let lat_p99 = percentile 99.0 lat in
  (* Flight-recorder overhead: replay the warm workload twice under
     request contexts — recorder off, then on.  The always-on ring must
     cost < 10% of warm p99 (plus a small absolute slack so a machine
     hiccup at the 20us scale cannot fail the build by itself). *)
  let timed_warm_p99 () =
    Telemetry.reset ();
    Telemetry.enable ();
    let registry =
      match Model.Registry.open_dir dir with Ok r -> r | Error m -> fail m
    in
    let lats = ref [] in
    List.iter
      (fun id ->
        let ty = Semtypes.Registry.find_exn id in
        let entry =
          match Model.Registry.find registry id with
          | Ok e -> e
          | Error e -> fail (Model.Artifact.load_error_to_string e)
        in
        Telemetry.Context.with_context (Telemetry.Context.root ())
        @@ fun () ->
        List.iter
          (fun v ->
            let t = Telemetry.now_ns () in
            ignore
              (Autotype_core.Synthesis.validate
                 entry.Model.Registry.synthesis v);
            lats :=
              (Int64.to_float (Int64.sub (Telemetry.now_ns ()) t) /. 1e6)
              :: !lats)
          (serve_workload ty))
      type_ids;
    Telemetry.disable ();
    percentile 99.0 (Array.of_list !lats)
  in
  (* Best of three replays per mode: at the 20us scale a single
     scheduler hiccup is bigger than the effect being measured, and the
     recorder's true cost is a lower bound across repeats. *)
  let min_of_3 f = Float.min (f ()) (Float.min (f ()) (f ())) in
  Telemetry.Flight.set_enabled false;
  let p99_off = min_of_3 timed_warm_p99 in
  Telemetry.Flight.set_enabled true;
  let p99_on = min_of_3 timed_warm_p99 in
  (* Route comparison: replay the workload value-by-value through the
     compiled summary and through the interpreter, off the telemetry
     clock.  The two routes must return byte-identical verdicts (the
     interpreter is the oracle), and the compiled route's tail must be
     strictly cheaper — that delta is the fast path's payoff. *)
  let fast_lats = ref [] in
  let interp_lats = ref [] in
  let routes_identical = ref true in
  let compiled_models = ref 0 in
  List.iter
    (fun id ->
      let ty = Semtypes.Registry.find_exn id in
      let entry =
        match Model.Registry.find registry id with
        | Ok e -> e
        | Error e -> fail (Model.Artifact.load_error_to_string e)
      in
      match entry.Model.Registry.tree with
      | None -> ()
      | Some prepared ->
        incr compiled_models;
        let interp_fn =
          Autotype_core.Synthesis.validate entry.Model.Registry.synthesis
        in
        List.iter
          (fun v ->
            let t = Telemetry.now_ns () in
            let fast = Absint.Domain.eval_prepared prepared v in
            fast_lats :=
              (Int64.to_float (Int64.sub (Telemetry.now_ns ()) t) /. 1e6)
              :: !fast_lats;
            let t = Telemetry.now_ns () in
            let slow = interp_fn v in
            interp_lats :=
              (Int64.to_float (Int64.sub (Telemetry.now_ns ()) t) /. 1e6)
              :: !interp_lats;
            if fast <> slow then begin
              routes_identical := false;
              Printf.eprintf
                "ROUTE DIVERGENCE on %s %S: fast=%b interp=%b\n" id v fast
                slow
            end)
          (serve_workload ty))
    type_ids;
  let fast_lat = Array.of_list !fast_lats in
  let interp_lat = Array.of_list !interp_lats in
  let n_validations =
    List.fold_left (fun acc (_, vs) -> acc + List.length vs) 0 warm_verdicts
  in
  let slo =
    Telemetry.Slo.eval Telemetry.Slo.default_target ~p99_ms:lat_p99
      ~errors:
        (Telemetry.find_counter warm_snap "driver.infra_failures"
         + Telemetry.find_counter warm_snap "serve.degraded")
      ~deadline_hits:(Telemetry.find_counter warm_snap "serve.deadline_hits")
      ~total:n_validations
  in
  let stats =
    {
      sv_n_models = List.length type_ids;
      sv_n_validations = n_validations;
      sv_cold_elapsed;
      sv_warm_elapsed;
      sv_cold_runs;
      sv_warm_runs = Telemetry.find_counter warm_snap "interp.runs";
      sv_warm_search_spans =
        List.length (Telemetry.spans_named "pipeline.search");
      sv_warm_analyze_spans =
        List.length (Telemetry.spans_named "pipeline.analyze");
      sv_warm_loads = Telemetry.find_counter warm_snap "model.loads";
      sv_cache_hits = Telemetry.find_counter warm_snap "serve.cache_hits";
      sv_cache_misses = Telemetry.find_counter warm_snap "serve.cache_misses";
      sv_parity = cold_verdicts = warm_verdicts;
      sv_lat_p50_ms = lat_p50;
      sv_lat_p95_ms = lat_p95;
      sv_lat_p99_ms = lat_p99;
      sv_sketch_p50_ms = warm_hist.Telemetry.h_p50;
      sv_sketch_p95_ms = warm_hist.Telemetry.h_p95;
      sv_sketch_p99_ms = warm_hist.Telemetry.h_p99;
      sv_sketch_ok =
        close warm_hist.Telemetry.h_p50 lat_p50
        && close warm_hist.Telemetry.h_p95 lat_p95
        && close warm_hist.Telemetry.h_p99 lat_p99;
      sv_p99_flight_off_ms = p99_off;
      sv_p99_flight_on_ms = p99_on;
      (* 50us absolute slack: the recorder's true per-value cost is a
         few ring stores (~1us); at the 20-80us p99 scale the absolute
         term dominates the 10% one, and a real regression (a syscall
         or a lock convoy on the record path) lands well above it. *)
      sv_flight_ok = p99_on <= (p99_off *. 1.10) +. 0.05;
      sv_slo = slo;
      sv_warm_snapshot_json = Telemetry.Expose.render_json warm_snap;
      sv_fastpath_hits = Telemetry.find_counter warm_snap "serve.fastpath_hits";
      sv_fastpath_fallbacks =
        Telemetry.find_counter warm_snap "serve.fastpath_fallbacks";
      sv_compiled_models = !compiled_models;
      sv_routes_identical = !routes_identical;
      sv_fast_p50_ms = percentile 50.0 fast_lat;
      sv_fast_p99_ms = percentile 99.0 fast_lat;
      sv_interp_p50_ms = percentile 50.0 interp_lat;
      sv_interp_p99_ms = percentile 99.0 interp_lat;
    }
  in
  if not stats.sv_parity then
    List.iter2
      (fun (id, c) (_, w) ->
        if c <> w then
          Printf.eprintf "SERVE DIVERGENCE on %s: %d/%d verdicts differ\n" id
            (List.length
               (List.filter (fun x -> x)
                  (List.map2 (fun a b -> a <> b) c w)))
            (List.length c))
      cold_verdicts warm_verdicts;
  (* The registry directory is scratch; leave nothing behind. *)
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Sys.rmdir dir
  end;
  stats

let per_1k elapsed n =
  if n = 0 then 0.0 else 1000.0 *. elapsed /. float_of_int n

let print_serve_report (s : serve_stats) =
  Printf.printf "\n-- compile/serve split --\n";
  Printf.printf
    "cold (compile %d models + %d validations): %.2fs (%.1fms per 1k \
     validations)\n"
    s.sv_n_models s.sv_n_validations s.sv_cold_elapsed
    (1e3 *. per_1k s.sv_cold_elapsed s.sv_n_validations);
  Printf.printf
    "warm (load %d models + %d validations):    %.2fs (%.1fms per 1k \
     validations)\n"
    s.sv_warm_loads s.sv_n_validations s.sv_warm_elapsed
    (1e3 *. per_1k s.sv_warm_elapsed s.sv_n_validations);
  Printf.printf
    "interpreter runs: %d cold -> %d warm (%.1fx fewer); warm pipeline \
     spans: %d search, %d analyze\n"
    s.sv_cold_runs s.sv_warm_runs
    (if s.sv_warm_runs > 0 then
       float_of_int s.sv_cold_runs /. float_of_int s.sv_warm_runs
     else 0.0)
    s.sv_warm_search_spans s.sv_warm_analyze_spans;
  Printf.printf "serve cache: %d hits, %d misses; verdict parity: %s\n"
    s.sv_cache_hits s.sv_cache_misses
    (if s.sv_parity then "identical" else "DIVERGED");
  Printf.printf
    "warm per-value latency: p50 %.3fms, p95 %.3fms, p99 %.3fms\n"
    s.sv_lat_p50_ms s.sv_lat_p95_ms s.sv_lat_p99_ms;
  Printf.printf
    "streaming sketch:       p50 %.3fms, p95 %.3fms, p99 %.3fms (%s)\n"
    s.sv_sketch_p50_ms s.sv_sketch_p95_ms s.sv_sketch_p99_ms
    (if s.sv_sketch_ok then "within 5% of nearest-rank" else "OUT OF BOUNDS");
  Printf.printf
    "flight recorder: warm p99 %.3fms off -> %.3fms on (%s)\n"
    s.sv_p99_flight_off_ms s.sv_p99_flight_on_ms
    (if s.sv_flight_ok then "under the 10% overhead budget"
     else "OVER BUDGET");
  Printf.printf
    "fast path: %d/%d models compiled; %d hits, %d fallbacks; per-value \
     p50/p99 %.4f/%.4fms fast vs %.4f/%.4fms interp; routes %s\n"
    s.sv_compiled_models s.sv_n_models s.sv_fastpath_hits
    s.sv_fastpath_fallbacks s.sv_fast_p50_ms s.sv_fast_p99_ms
    s.sv_interp_p50_ms s.sv_interp_p99_ms
    (if s.sv_routes_identical then "identical" else "DIVERGED");
  Printf.printf
    "slo: p99 %.3fms vs target %.3fms (%s), error burn %.3f, deadline hit \
     rate %.4f\n"
    s.sv_slo.Telemetry.Slo.rep_p99_ms s.sv_slo.Telemetry.Slo.rep_target_p99_ms
    (if s.sv_slo.Telemetry.Slo.rep_p99_ok then "ok" else "MISSED")
    s.sv_slo.Telemetry.Slo.rep_error_budget_burn
    s.sv_slo.Telemetry.Slo.rep_deadline_hit_rate

let serve_json (s : serve_stats) =
  J_obj
    [ ("models", J_int s.sv_n_models);
      ("validations", J_int s.sv_n_validations);
      ("cold_elapsed_s", J_float s.sv_cold_elapsed);
      ("warm_elapsed_s", J_float s.sv_warm_elapsed);
      ("cold_per_1k_s", J_float (per_1k s.sv_cold_elapsed s.sv_n_validations));
      ("warm_per_1k_s", J_float (per_1k s.sv_warm_elapsed s.sv_n_validations));
      ("cold_interp_runs", J_int s.sv_cold_runs);
      ("warm_interp_runs", J_int s.sv_warm_runs);
      ("warm_search_spans", J_int s.sv_warm_search_spans);
      ("warm_analyze_spans", J_int s.sv_warm_analyze_spans);
      ("warm_model_loads", J_int s.sv_warm_loads);
      ("cache_hits", J_int s.sv_cache_hits);
      ("cache_misses", J_int s.sv_cache_misses);
      ("verdict_parity", J_bool s.sv_parity);
      ( "tail_latency",
        J_obj
          [ ("p50_ms", J_float s.sv_lat_p50_ms);
            ("p95_ms", J_float s.sv_lat_p95_ms);
            ("p99_ms", J_float s.sv_lat_p99_ms) ] );
      ( "streaming_quantiles",
        J_obj
          [ ("p50_ms", J_float s.sv_sketch_p50_ms);
            ("p95_ms", J_float s.sv_sketch_p95_ms);
            ("p99_ms", J_float s.sv_sketch_p99_ms);
            ("within_5pct_of_nearest_rank", J_bool s.sv_sketch_ok) ] );
      ( "flight_recorder",
        J_obj
          [ ("p99_ms_off", J_float s.sv_p99_flight_off_ms);
            ("p99_ms_on", J_float s.sv_p99_flight_on_ms);
            ("overhead_under_10pct", J_bool s.sv_flight_ok) ] );
      ( "fastpath",
        J_obj
          [ ("hits", J_int s.sv_fastpath_hits);
            ("fallbacks", J_int s.sv_fastpath_fallbacks);
            ("compiled_models", J_int s.sv_compiled_models);
            ("routes_identical", J_bool s.sv_routes_identical);
            ("fast_p50_ms", J_float s.sv_fast_p50_ms);
            ("fast_p99_ms", J_float s.sv_fast_p99_ms);
            ("interp_p50_ms", J_float s.sv_interp_p50_ms);
            ("interp_p99_ms", J_float s.sv_interp_p99_ms) ] );
      ("slo", J_raw (Telemetry.Slo.report_to_json s.sv_slo)) ]

(* ------------------------------------------------------------------ *)
(* Serving daemon under open-loop load (BENCH_serve.json)               *)
(* ------------------------------------------------------------------ *)

(* The daemon bench drives `autotype serve`'s engine (Serve.Daemon over
   a socketpair) with open-loop traffic: requests are dispatched at
   scheduled instants t0 + i/rate regardless of completions, so a slow
   server accumulates queueing delay instead of silently slowing the
   generator — latency is measured from the scheduled send time, the
   honest open-loop definition. *)

let serve_daemon_types = [ "ipv4"; "credit-card" ]

(* Build a registry of compiled models for the daemon to serve; the
   caller removes it. *)
let build_serve_registry type_ids dir =
  let fail msg = prerr_endline ("serve-daemon bench: " ^ msg); exit 1 in
  let registry =
    match Model.Registry.create_dir dir with Ok r -> r | Error m -> fail m
  in
  List.iter
    (fun id ->
      let ty = Semtypes.Registry.find_exn id in
      let positives = Semtypes.Registry.positive_examples ~n:20 ~seed:11 ty in
      let compiled =
        Autotype_core.Pipeline.compile ~index:(Corpus.search_index ())
          ~query:ty.Semtypes.Registry.name ~positives ()
      in
      match Model.Artifact.of_compiled compiled with
      | None -> fail ("no function synthesized for " ^ id)
      | Some a ->
        (match Model.Registry.save registry (Model.Artifact.with_type_id id a)
         with
         | Ok _ -> ()
         | Error m -> fail m))
    type_ids;
  registry

let json_str_list vs =
  Model.Jsonx.List (List.map (fun v -> Model.Jsonx.Str v) vs)

(* Deterministic mixed traffic: 3 validates (8 values) to 1 detect (24
   values), round-robin over the types, values sliced from the same
   ~250-value workload the compile/serve bench uses.  [budgeted]
   attaches wall-clock budgets, which routes validation through the
   interpreter — where the fault layer's delay/kill probes live — so
   the chaos pass actually exercises degradation. *)
let make_requests ~budgeted ~n workloads =
  let n_types = Array.length workloads in
  List.init n (fun i ->
      let id = i + 1 in
      let ty, wl = workloads.(i mod n_types) in
      let take off k =
        List.filteri (fun j _ -> j >= off mod 200 && j < (off mod 200) + k) wl
      in
      let base =
        if i mod 4 < 3 then
          [ ("id", Model.Jsonx.Int id); ("op", Model.Jsonx.Str "validate");
            ("type", Model.Jsonx.Str ty);
            ("values", json_str_list (take (7 * i) 8)) ]
        else
          [ ("id", Model.Jsonx.Int id); ("op", Model.Jsonx.Str "detect");
            ("type", Model.Jsonx.Str ty);
            ("values", json_str_list (take (13 * i) 24)) ]
      in
      let fields =
        if budgeted then
          base
          @ [ ("deadline_ms", Model.Jsonx.Float 30.0);
              ("value_budget_ms", Model.Jsonx.Float 2.0) ]
        else base
      in
      (id, Model.Jsonx.to_string (Model.Jsonx.Obj fields)))

type rate_result = {
  rr_target_qps : int;
  rr_offered : int;
  rr_completed : int;
  rr_sustained_qps : float;
  rr_p50_ms : float;
  rr_p95_ms : float;
  rr_p99_ms : float;
  rr_rejected : int;  (** [overloaded] answers (admission or injected) *)
  rr_degraded : int;  (** degraded detect columns *)
  rr_deadline_verdicts : int;  (** DEADLINE/SKIPPED value verdicts *)
  rr_errors : int;  (** any other [ok:false] answer *)
}

(* Drive one arrival rate through an already-running daemon on [sock]
   (non-blocking).  Every request receives exactly one response —
   rejections included — so the loop ends when all [n] came back. *)
let drive_rate ~rate ~requests sock =
  let n = List.length requests in
  let frames =
    Array.of_list
      (List.map (fun (id, payload) -> (id, Serve.Frame.encode payload)) requests)
  in
  let sched_ns = Array.make (n + 1) 0L in
  let done_ns = Array.make (n + 1) 0L in
  let rejected = ref 0 and degraded = ref 0 and deadline_verdicts = ref 0 in
  let errors = ref 0 and completed = ref 0 in
  let dec = Serve.Frame.decoder () in
  let chunk = Bytes.create 65536 in
  let out = Buffer.create 65536 in
  let out_off = ref 0 in
  let t0 = Telemetry.now_ns () in
  let gap_ns = Int64.of_float (1e9 /. float_of_int rate) in
  let next_sent = ref 0 in
  let classify (r : Serve.Protocol.reply) =
    let j = r.Serve.Protocol.rp_body in
    if not r.Serve.Protocol.rp_ok then begin
      match Model.Jsonx.member_opt "error" j with
      | Some (Model.Jsonx.Str "overloaded") -> incr rejected
      | _ -> incr errors
    end
    else begin
      (match Model.Jsonx.member_opt "degraded" j with
       | Some (Model.Jsonx.Bool true) -> incr degraded
       | _ -> ());
      match Model.Jsonx.member_opt "verdicts" j with
      | Some (Model.Jsonx.List vs) ->
        List.iter
          (function
            | Model.Jsonx.Str ("DEADLINE" | "SKIPPED") ->
              incr deadline_verdicts
            | _ -> ())
          vs
      | _ -> ()
    end
  in
  let on_reply now payload =
    match Serve.Protocol.reply_of_json payload with
    | Error m ->
      prerr_endline ("serve-daemon bench: unparsable reply: " ^ m);
      exit 1
    | Ok r ->
      let id = r.Serve.Protocol.rp_id in
      if id >= 1 && id <= n && done_ns.(id) = 0L then begin
        done_ns.(id) <- now;
        incr completed
      end;
      classify r
  in
  while !completed < n do
    let now = Telemetry.now_ns () in
    (* Enqueue every frame whose scheduled instant has arrived. *)
    while
      !next_sent < n
      && Int64.compare
           (Int64.add t0 (Int64.mul (Int64.of_int !next_sent) gap_ns))
           now
         <= 0
    do
      let id, frame = frames.(!next_sent) in
      sched_ns.(id) <- Int64.add t0 (Int64.mul (Int64.of_int !next_sent) gap_ns);
      Buffer.add_string out frame;
      incr next_sent
    done;
    let want_write = Buffer.length out > !out_off in
    let timeout =
      if !next_sent >= n then 0.05
      else
        let next_at =
          Int64.add t0 (Int64.mul (Int64.of_int !next_sent) gap_ns)
        in
        Float.max 0.0
          (Int64.to_float (Int64.sub next_at (Telemetry.now_ns ())) /. 1e9)
    in
    (match
       Unix.select [ sock ] (if want_write then [ sock ] else []) [] timeout
     with
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
     | readable, writable, _ ->
       if writable <> [] then begin
         let pending = Buffer.length out - !out_off in
         let b = Bytes.unsafe_of_string (Buffer.contents out) in
         (match Unix.write sock b !out_off pending with
          | w ->
            out_off := !out_off + w;
            if !out_off = Buffer.length out then begin
              Buffer.clear out;
              out_off := 0
            end
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            -> ())
       end;
       if readable <> [] then begin
         match Unix.read sock chunk 0 65536 with
         | 0 ->
           prerr_endline "serve-daemon bench: daemon closed the connection";
           exit 1
         | nread ->
           let now = Telemetry.now_ns () in
           Serve.Frame.feed dec (Bytes.sub_string chunk 0 nread);
           let rec drain () =
             match Serve.Frame.next dec with
             | Some (Serve.Frame.Payload p) -> on_reply now p; drain ()
             | Some _ ->
               prerr_endline "serve-daemon bench: malformed frame from daemon";
               exit 1
             | None -> ()
           in
           drain ()
         | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
           -> ()
       end)
  done;
  let last = Array.fold_left (fun acc t -> Int64.max acc t) 0L done_ns in
  let lats =
    Array.of_list
      (List.filter_map
         (fun id ->
           if done_ns.(id) = 0L then None
           else
             Some
               (Int64.to_float (Int64.sub done_ns.(id) sched_ns.(id)) /. 1e6))
         (List.init n (fun i -> i + 1)))
  in
  let span_s = Int64.to_float (Int64.sub last t0) /. 1e9 in
  {
    rr_target_qps = rate;
    rr_offered = n;
    rr_completed = !completed;
    rr_sustained_qps =
      (if span_s > 0.0 then float_of_int !completed /. span_s else 0.0);
    rr_p50_ms = percentile 50.0 lats;
    rr_p95_ms = percentile 95.0 lats;
    rr_p99_ms = percentile 99.0 lats;
    rr_rejected = !rejected;
    rr_degraded = !degraded;
    rr_deadline_verdicts = !deadline_verdicts;
    rr_errors = !errors;
  }

(* One daemon lifetime: spawn over a socketpair, run [f] against the
   client end, then shut down cleanly and join.  Returns [f]'s result
   plus the daemon's own (served, rejected) accounting; any daemon
   crash surfaces as the Domain.join exception. *)
let with_daemon registry f =
  let client, server =
    Unix.socketpair ~cloexec:false Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let cfg = Serve.Daemon.config registry in
  let daemon =
    Domain.spawn (fun () ->
        Serve.Daemon.run_fds cfg ~in_fd:server ~out_fd:server)
  in
  Unix.set_nonblock client;
  let result = f client in
  (* Blocking shutdown exchange on the now-quiet connection. *)
  Unix.clear_nonblock client;
  let bye = Serve.Frame.encode {|{"id":999999,"op":"shutdown"}|} in
  let b = Bytes.of_string bye in
  ignore (Unix.write client b 0 (Bytes.length b));
  let dec = Serve.Frame.decoder () in
  let chunk = Bytes.create 4096 in
  let rec await () =
    match Serve.Frame.next dec with
    | Some (Serve.Frame.Payload _) -> ()
    | Some _ -> ()
    | None ->
      (match Unix.read client chunk 0 4096 with
       | 0 -> ()
       | nread ->
         Serve.Frame.feed dec (Bytes.sub_string chunk 0 nread);
         await ())
  in
  await ();
  let served, rejected = Domain.join daemon in
  Unix.close client;
  Unix.close server;
  (result, served, rejected)

(* Byte-parity probe: the daemon's verdict words for a type's full
   workload must equal what the one-shot CLI prints (both sides call
   Tablecorpus.Detect.serve). *)
let parity_probe registry workloads =
  let ok = ref true in
  let _, _, _ =
    with_daemon registry (fun sock ->
        Unix.clear_nonblock sock;
        Array.iteri
          (fun i (ty, wl) ->
            let payload =
              Model.Jsonx.to_string
                (Model.Jsonx.Obj
                   [ ("id", Model.Jsonx.Int (i + 1));
                     ("op", Model.Jsonx.Str "validate");
                     ("type", Model.Jsonx.Str ty);
                     ("values", json_str_list wl) ])
            in
            let frame = Serve.Frame.encode payload in
            let b = Bytes.of_string frame in
            ignore (Unix.write sock b 0 (Bytes.length b));
            let dec = Serve.Frame.decoder () in
            let chunk = Bytes.create 65536 in
            let rec await () =
              match Serve.Frame.next dec with
              | Some (Serve.Frame.Payload p) -> p
              | Some _ ->
                prerr_endline "serve-daemon bench: malformed parity frame";
                exit 1
              | None ->
                (match Unix.read sock chunk 0 65536 with
                 | 0 ->
                   prerr_endline "serve-daemon bench: daemon closed mid-parity";
                   exit 1
                 | nread ->
                   Serve.Frame.feed dec (Bytes.sub_string chunk 0 nread);
                   await ())
            in
            let payload = await () in
            let daemon_verdicts =
              match Serve.Protocol.reply_of_json payload with
              | Ok r ->
                (match
                   Model.Jsonx.member_opt "verdicts" r.Serve.Protocol.rp_body
                 with
                 | Some (Model.Jsonx.List vs) ->
                   List.map Model.Jsonx.to_str vs
                 | _ ->
                   prerr_endline "serve-daemon bench: parity reply not ok";
                   exit 1)
              | Error m ->
                prerr_endline ("serve-daemon bench: parity reply: " ^ m);
                exit 1
            in
            let entry =
              match Model.Registry.find registry ty with
              | Ok e -> e
              | Error e ->
                prerr_endline (Model.Artifact.load_error_to_string e);
                exit 1
            in
            let cli_verdicts =
              List.map Tablecorpus.Detect.value_verdict_to_string
                (Tablecorpus.Detect.serve (Tablecorpus.Detect.Loaded entry) wl)
            in
            if daemon_verdicts <> cli_verdicts then begin
              ok := false;
              Printf.eprintf "PARITY DRIFT on %s: daemon and CLI disagree\n"
                ty
            end)
          workloads;
        ())
  in
  !ok

let rate_json (r : rate_result) =
  J_obj
    [ ("target_qps", J_int r.rr_target_qps);
      ("offered", J_int r.rr_offered);
      ("completed", J_int r.rr_completed);
      ("sustained_qps", J_float r.rr_sustained_qps);
      ("p50_ms", J_float r.rr_p50_ms);
      ("p95_ms", J_float r.rr_p95_ms);
      ("p99_ms", J_float r.rr_p99_ms);
      ("rejected", J_int r.rr_rejected);
      ("degraded_columns", J_int r.rr_degraded);
      ("deadline_verdicts", J_int r.rr_deadline_verdicts);
      ("errors", J_int r.rr_errors) ]

let print_rate_report label results =
  Printf.printf "\n-- %s --\n" label;
  print_table
    [ "target qps"; "offered"; "done"; "sustained"; "p50"; "p95"; "p99";
      "rejected"; "degraded"; "deadline" ]
    (List.map
       (fun r ->
         [ string_of_int r.rr_target_qps; string_of_int r.rr_offered;
           string_of_int r.rr_completed;
           Printf.sprintf "%.0f/s" r.rr_sustained_qps;
           Printf.sprintf "%.2fms" r.rr_p50_ms;
           Printf.sprintf "%.2fms" r.rr_p95_ms;
           Printf.sprintf "%.2fms" r.rr_p99_ms;
           string_of_int r.rr_rejected; string_of_int r.rr_degraded;
           string_of_int r.rr_deadline_verdicts ])
       results)

let serve_daemon_bench () =
  section "Serving daemon under open-loop load (BENCH_serve.json)";
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "autotype-bench-daemon-%d" (Unix.getpid ()))
  in
  let registry = build_serve_registry serve_daemon_types dir in
  Fun.protect ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
  @@ fun () ->
  let workloads =
    Array.of_list
      (List.map
         (fun id ->
           (id, serve_workload (Semtypes.Registry.find_exn id)))
         serve_daemon_types)
  in
  let rates = [ 500; 1500; 4000 ] in
  let run_pass ~budgeted =
    List.map
      (fun rate ->
        let n = max 100 (rate / 2) in
        let requests = make_requests ~budgeted ~n workloads in
        let result, _, _ =
          with_daemon registry (fun sock -> drive_rate ~rate ~requests sock)
        in
        result)
      rates
  in
  let crashed = ref false in
  let guard label f =
    try f ()
    with exn ->
      crashed := true;
      Printf.eprintf "serve-daemon bench: %s pass crashed: %s\n" label
        (Printexc.to_string exn);
      []
  in
  let clean = guard "clean" (fun () -> run_pass ~budgeted:false) in
  let chaos_spec = "delay_ms=1,p_kill=0.05,p_reject=0.05,seed=7" in
  let chaos =
    let cfg =
      match Faults.parse chaos_spec with
      | Ok c -> c
      | Error m -> prerr_endline ("bad chaos spec: " ^ m); exit 1
    in
    Faults.set (Some cfg);
    Fun.protect ~finally:(fun () -> Faults.set None) @@ fun () ->
    guard "chaos" (fun () -> run_pass ~budgeted:true)
  in
  let parity = parity_probe registry workloads in
  print_rate_report "clean (unbudgeted, no faults)" clean;
  print_rate_report
    (Printf.sprintf "chaos (%s; 30ms deadline, 2ms value budget)" chaos_spec)
    chaos;
  Printf.printf "\nverdict parity with the one-shot CLI: %s\n"
    (if parity then "identical" else "DRIFTED");
  let chaos_rejected = List.fold_left (fun a r -> a + r.rr_rejected) 0 chaos in
  let chaos_degraded =
    List.fold_left
      (fun a r -> a + r.rr_degraded + r.rr_deadline_verdicts)
      0 chaos
  in
  Printf.printf
    "chaos accounting: %d rejections, %d degraded columns or cut verdicts \
     across %d requests\n"
    chaos_rejected chaos_degraded
    (List.fold_left (fun a r -> a + r.rr_offered) 0 chaos);
  let json =
    jv_to_string
      (J_obj
         [ ("types", J_list (List.map (fun t -> J_str t) serve_daemon_types));
           ("rates", J_list (List.map (fun r -> J_int r) rates));
           ("clean", J_list (List.map rate_json clean));
           ( "chaos",
             J_obj
               [ ("spec", J_str chaos_spec);
                 ("deadline_ms", J_float 30.0);
                 ("value_budget_ms", J_float 2.0);
                 ("rates", J_list (List.map rate_json chaos));
                 ("rejected_total", J_int chaos_rejected);
                 ("degraded_total", J_int chaos_degraded) ] );
           ("parity", J_bool parity);
           ("crashed", J_bool !crashed) ])
    ^ "\n"
  in
  let oc = open_out "BENCH_serve.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_serve.json (%d rates x 2 passes)\n"
    (List.length rates);
  if (not parity) || !crashed then exit 1

let pipeline_bench () =
  section "Pipeline stage timings (BENCH_pipeline.json)";
  let type_ids = [ "credit-card"; "ipv4"; "email"; "isbn" ] in
  let jobs = if !bench_jobs <= 0 then Exec.default_jobs () else !bench_jobs in
  let recommended = Domain.recommended_domain_count () in
  Printf.printf "jobs=%d (recommended domain count: %d)\n" jobs recommended;
  let seq_fp, seq_elapsed, seq_stages, seq_snap =
    pipeline_pass ?pool:None type_ids
  in
  let par_fp, par_elapsed, par_stages, par_snap =
    Exec.Pool.with_pool ~jobs (fun pool -> pipeline_pass ~pool type_ids)
  in
  (* A third pass with static pruning disabled: the ranked output must
     be byte-identical (the pruned candidates can never rank), and the
     delta in interpreter work is the optimisation's payoff. *)
  let nos_fp, nos_elapsed, nos_stages, nos_snap =
    pipeline_pass ?pool:None ~staticcheck:false type_ids
  in
  (* Fourth pass: the compile/serve split — cold compile vs warm
     registry serving over the same validation workload. *)
  let serve = serve_pass type_ids in
  print_pass_report "sequential (jobs=1)" (seq_elapsed, seq_stages, seq_snap);
  print_pass_report
    (Printf.sprintf "parallel (jobs=%d)" jobs)
    (par_elapsed, par_stages, par_snap);
  print_pass_report "no staticcheck (jobs=1)"
    (nos_elapsed, nos_stages, nos_snap);
  let identical = seq_fp = par_fp in
  if not identical then begin
    List.iter2
      (fun (id, s) (_, p) ->
        if s <> p then
          Printf.eprintf "DIVERGENCE on %s:\n-- sequential --\n%s\n-- parallel --\n%s\n"
            id s p)
      seq_fp par_fp;
    prerr_endline "parallel run diverged from sequential run"
  end;
  let static_identical = seq_fp = nos_fp in
  if not static_identical then begin
    List.iter2
      (fun (id, s) (_, n) ->
        if s <> n then
          Printf.eprintf
            "DIVERGENCE on %s:\n-- staticcheck --\n%s\n-- no staticcheck --\n%s\n"
            id s n)
      seq_fp nos_fp;
    prerr_endline "static pruning changed the ranked output"
  end;
  let speedup seq par = if par > 0.0 then seq /. par else 0.0 in
  let trace_speedup =
    speedup
      (stage_total "pipeline.trace" seq_stages)
      (stage_total "pipeline.trace" par_stages)
  in
  let elapsed_speedup = speedup seq_elapsed par_elapsed in
  Printf.printf
    "\nspeedup (sequential/parallel): trace %.2fx, elapsed %.2fx; ranked outputs %s\n"
    trace_speedup elapsed_speedup
    (if identical then "identical" else "DIVERGED");
  let pruned = Telemetry.find_counter seq_snap "staticcheck.pruned" in
  let diags = Telemetry.find_counter seq_snap "staticcheck.diagnostics" in
  let runs_static = Telemetry.find_counter seq_snap "interp.runs" in
  let runs_nostatic = Telemetry.find_counter nos_snap "interp.runs" in
  (* The run counts are deterministic and are the real payoff metric;
     the wall times are best-of-3 warm re-measurements.  (A previous
     revision subtracted the two single-pass totals, which reported a
     negative "saving" — the no-staticcheck pass ran third, after every
     cache had warmed up.) *)
  let _, _, static_stages3, _ =
    best_pass (fun () -> pipeline_pass ?pool:None type_ids)
  in
  let _, _, nostatic_stages3, _ =
    best_pass (fun () -> pipeline_pass ?pool:None ~staticcheck:false type_ids)
  in
  let trace_static3 = stage_total "pipeline.trace" static_stages3 in
  let trace_nostatic3 = stage_total "pipeline.trace" nostatic_stages3 in
  Printf.printf
    "staticcheck: %d candidates pruned, %d diagnostics; interp runs %d -> %d, \
     trace best-of-3 %.1fms -> %.1fms; ranked outputs %s\n"
    pruned diags runs_nostatic runs_static (1e3 *. trace_nostatic3)
    (1e3 *. trace_static3)
    (if static_identical then "identical" else "DIVERGED");
  (* Engine comparison (DESIGN.md §14): the same sequential pass under
     the tree-walking oracle and the bytecode VM must produce
     byte-identical ranked output with identical step accounting — the
     engines differ only in wall-clock.  Best-of-3 per engine. *)
  let with_engine on f =
    let prev = Minilang.Interp.vm_enabled () in
    Minilang.Interp.set_vm_enabled on;
    Fun.protect ~finally:(fun () -> Minilang.Interp.set_vm_enabled prev) f
  in
  let tw_fp, _, tw_stages, tw_snap =
    with_engine false (fun () ->
        best_pass (fun () -> pipeline_pass ?pool:None type_ids))
  in
  let vm_fp, _, vm_stages, vm_snap =
    with_engine true (fun () ->
        best_pass (fun () -> pipeline_pass ?pool:None type_ids))
  in
  let vm_identical = tw_fp = vm_fp in
  if not vm_identical then begin
    List.iter2
      (fun (id, t) (_, v) ->
        if t <> v then
          Printf.eprintf "DIVERGENCE on %s:\n-- tree --\n%s\n-- vm --\n%s\n" id
            t v)
      tw_fp vm_fp;
    prerr_endline "bytecode VM diverged from the tree-walking oracle"
  end;
  let tw_trace = stage_total "pipeline.trace" tw_stages in
  let vm_trace = stage_total "pipeline.trace" vm_stages in
  let tw_steps = Telemetry.find_counter tw_snap "interp.steps" in
  let vm_steps = Telemetry.find_counter vm_snap "interp.steps" in
  let steps_identical = tw_steps = vm_steps in
  let vm_trace_speedup = speedup tw_trace vm_trace in
  let per_sec steps s = if s > 0.0 then float_of_int steps /. s else 0.0 in
  let compile_s =
    float_of_int (Telemetry.find_counter seq_snap "vm.compile_ns") /. 1e9
  in
  Printf.printf
    "vm: trace best-of-3 %.1fms (tree) vs %.1fms (vm), %.1fx; %.2fM vs \
     %.2fM steps/s; steps %s; ranked outputs %s\n"
    (1e3 *. tw_trace) (1e3 *. vm_trace) vm_trace_speedup
    (per_sec tw_steps tw_trace /. 1e6)
    (per_sec vm_steps vm_trace /. 1e6)
    (if steps_identical then "identical" else "DIVERGED")
    (if vm_identical then "identical" else "DIVERGED");
  print_serve_report serve;
  (* Serving must never touch the pipeline's search/analyze stages,
     must cut interpreter work by at least an order of magnitude (to
     zero when every model compiled), the compiled fast path must
     actually fire with verdicts byte-identical to the interpreter and
     a strictly cheaper tail, the streaming sketch must agree with the
     nearest-rank tail, and the always-on flight recorder must stay
     under its overhead budget. *)
  let serve_ok =
    serve.sv_parity
    && serve.sv_warm_search_spans = 0
    && serve.sv_warm_analyze_spans = 0
    && (serve.sv_warm_runs = 0
        || serve.sv_cold_runs >= 10 * serve.sv_warm_runs)
    && serve.sv_fastpath_hits > 0
    && serve.sv_routes_identical
    && serve.sv_fast_p99_ms < serve.sv_interp_p99_ms
    && serve.sv_sketch_ok
    && serve.sv_flight_ok
  in
  if not serve_ok then
    prerr_endline
      "serve pass failed its invariants (parity / zero pipeline spans / \
       >=10x fewer interpreter runs / fast path fired with identical \
       verdicts and a cheaper p99 / sketch within 5% / flight overhead \
       under 10%)";
  let json =
    jv_to_string
      (J_obj
         [ ("types", J_list (List.map (fun id -> J_str id) type_ids));
           ("jobs", J_int jobs);
           ("recommended_domains", J_int recommended);
           ("sequential", pass_json (seq_elapsed, seq_stages, seq_snap));
           ("parallel", pass_json (par_elapsed, par_stages, par_snap));
           ("nostatic", pass_json (nos_elapsed, nos_stages, nos_snap));
           ("trace_speedup", J_float trace_speedup);
           ("elapsed_speedup", J_float elapsed_speedup);
           ("ranked_identical", J_bool identical);
           ( "staticcheck",
             J_obj
               [ ("pruned", J_int pruned);
                 ("diagnostics", J_int diags);
                 ("interp_runs_static", J_int runs_static);
                 ("interp_runs_nostatic", J_int runs_nostatic);
                 ("interp_runs_avoided", J_int (runs_nostatic - runs_static));
                 ("trace_s_static_best3", J_float trace_static3);
                 ("trace_s_nostatic_best3", J_float trace_nostatic3);
                 ("ranked_identical", J_bool static_identical) ] );
           ( "vm",
             J_obj
               [ ("trace_s_tree_best3", J_float tw_trace);
                 ("trace_s_vm_best3", J_float vm_trace);
                 ("trace_speedup", J_float vm_trace_speedup);
                 ("steps_per_sec_tree", J_float (per_sec tw_steps tw_trace));
                 ("steps_per_sec_vm", J_float (per_sec vm_steps vm_trace));
                 ("interp_steps_tree", J_int tw_steps);
                 ("interp_steps_vm", J_int vm_steps);
                 ("steps_identical", J_bool steps_identical);
                 ("compiles", J_int (Telemetry.find_counter seq_snap "vm.compiles"));
                 ("compile_s", J_float compile_s);
                 ( "compile_cache_hits",
                   J_int (Telemetry.find_counter vm_snap "vm.compile_cache_hits") );
                 ( "scope_cache_hits",
                   J_int
                     (Telemetry.find_counter vm_snap "driver.scope_cache_hits") );
                 ("ranked_identical", J_bool vm_identical) ] );
           ("serve", serve_json serve) ])
    ^ "\n"
  in
  let oc = open_out "BENCH_pipeline.json" in
  output_string oc json;
  close_out oc;
  (* The warm-pass metrics snapshot doubles as the exposition fixture:
     `autotype stats --snapshot BENCH_telemetry.json --prom --lint` is
     the CI check that the Prometheus surface stays well-formed. *)
  let oc = open_out "BENCH_telemetry.json" in
  output_string oc (serve.sv_warm_snapshot_json ^ "\n");
  close_out oc;
  Printf.printf
    "wrote BENCH_pipeline.json + BENCH_telemetry.json (%d types, seq %.1fs \
     / par %.1fs)\n"
    (List.length type_ids) seq_elapsed par_elapsed;
  if
    not
      (identical && static_identical && serve_ok && vm_identical
     && steps_identical)
  then exit 1

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let subtypes () =
  section "Section 8.1: sub-type test cases (per-format and mixed)";
  let results = Eval.Subtypes.run_all () in
  let rows =
    List.map
      (fun ((c : Eval.Subtypes.case), (r : Eval.Benchmark.type_result)) ->
        let graded =
          Option.value
            (List.assoc_opt Autotype_core.Ranking.DNF_S r.Eval.Benchmark.per_method)
            ~default:[]
        in
        let rels = List.map (fun g -> g.Eval.Benchmark.relevance) graded in
        [ c.Eval.Subtypes.case_id; c.Eval.Subtypes.description;
          pct (Eval.Metrics.precision_at_k rels 1);
          pct (Eval.Metrics.precision_at_k rels 3);
          (match r.Eval.Benchmark.strategy with
           | Some s -> Autotype_core.Negative.strategy_to_string s
           | None -> "-") ])
      results
  in
  print_table [ "case"; "format"; "P@1"; "P@3"; "strategy" ] rows

let targets : (string * (unit -> unit)) list =
  [ ("fig8a", fig8a); ("fig8b", fig8b); ("fig8c", fig8c); ("fig9", fig9);
    ("coverage", coverage); ("fig10a", fig10a); ("fig10b", fig10b);
    ("fig10c", fig10c); ("fig11", fig11); ("table2", table2);
    ("table3", table3); ("fig12", fig12); ("fig13", fig13); ("fig14", fig14);
    ("sec83", sec83); ("subtypes", subtypes); ("ablation", ablation);
    ("micro", micro); ("pipeline", pipeline_bench);
    ("serve", serve_daemon_bench) ]

let () =
  let args =
    Array.to_list Sys.argv |> List.tl
    |> List.filter (fun a -> a <> "--")
  in
  let set_jobs s =
    match int_of_string_opt s with
    | Some n -> bench_jobs := n
    | None ->
      Printf.eprintf "--jobs expects an integer, got %S\n" s;
      exit 1
  in
  let rec strip_jobs acc = function
    | [] -> List.rev acc
    | "--jobs" :: n :: rest -> set_jobs n; strip_jobs acc rest
    | [ "--jobs" ] ->
      prerr_endline "--jobs expects an argument";
      exit 1
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--jobs=" ->
      set_jobs (String.sub a 7 (String.length a - 7));
      strip_jobs acc rest
    | a :: rest -> strip_jobs (a :: acc) rest
  in
  let requested = strip_jobs [] args in
  let requested = if requested = [] then [ "all" ] else requested in
  let to_run =
    if List.mem "all" requested then List.map fst targets
    else requested
  in
  List.iter
    (fun name ->
      match List.assoc_opt name targets with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown target %s; available: %s\n" name
          (String.concat " " (List.map fst targets));
        exit 1)
    to_run
