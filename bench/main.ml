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

(* Per-stage wall-clock baseline for optimisation work: one sequential
   synthesis pass over a few representative types under telemetry, the
   first synthesis in a fresh process (cold caches).  It writes the
   pass's stage wall times and its counters, which are deterministic
   counts, to BENCH_pipeline.json, and its metrics snapshot to
   BENCH_telemetry.json.  Exits non-zero when the pass leaves over
   [max_unattributed_share] of [pipeline.synthesize] outside its
   [pipeline.*] children. *)

let pipeline_stage_names =
  [ "pipeline.search"; "pipeline.analyze"; "pipeline.staticcheck";
    "pipeline.probe"; "pipeline.negatives"; "pipeline.trace";
    "pipeline.rank"; "pipeline.synthesize" ]

(* One telemetry-instrumented pass: wall-clock, per-stage totals, the
   share of [pipeline.synthesize] time that its direct [pipeline.*]
   children leave unattributed, and the counter snapshot. *)
type pass = {
  elapsed : float;
  stages : (string * int * float) list;
  unattributed : float;
  snap : Telemetry.snapshot;
}

(* The synthesis check: the direct [pipeline.*] children of
   [pipeline.synthesize] must account for all but this share of it, the
   bound autobench's replay gate uses. *)
let max_unattributed_share = 0.02

let unattributed_share () =
  let roots = Telemetry.spans_named "pipeline.synthesize" in
  let is_root id = List.exists (fun (r : Telemetry.span) -> r.sp_id = id) roots in
  let ns spans =
    List.fold_left
      (fun acc (s : Telemetry.span) -> Int64.add acc s.sp_dur_ns)
      0L spans
  in
  let children =
    List.filter
      (fun (s : Telemetry.span) ->
        String.starts_with ~prefix:"pipeline." s.sp_name
        && match s.sp_parent with Some p -> is_root p | None -> false)
      (Telemetry.spans ())
  in
  let total = ns roots in
  if total = 0L then 0.0
  else Int64.to_float (Int64.sub total (ns children)) /. Int64.to_float total

let pipeline_pass type_ids =
  Telemetry.reset ();
  Telemetry.enable ();
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun id ->
      let ty = Semtypes.Registry.find_exn id in
      let positives = Semtypes.Registry.positive_examples ~n:20 ~seed:11 ty in
      ignore
        (Autotype_core.Pipeline.synthesize ~index:(Corpus.search_index ())
           ~query:ty.Semtypes.Registry.name ~positives ()))
    type_ids;
  let elapsed = Unix.gettimeofday () -. t0 in
  Telemetry.disable ();
  let stages =
    List.map
      (fun name ->
        let spans = Telemetry.spans_named name in
        let total_s = Int64.to_float (Telemetry.total_ns name) /. 1e9 in
        (name, List.length spans, total_s))
      pipeline_stage_names
  in
  { elapsed; stages; unattributed = unattributed_share ();
    snap = Telemetry.snapshot () }

let print_pass_report { elapsed; stages; unattributed; snap } =
  print_table
    [ "stage"; "spans"; "total" ]
    (List.map
       (fun (name, n, total_s) ->
         [ name; string_of_int n; Printf.sprintf "%.1fms" (1e3 *. total_s) ])
       stages);
  Printf.printf "unattributed: %.2f%% of pipeline.synthesize (bound %.0f%%)\n"
    (100.0 *. unattributed)
    (100.0 *. max_unattributed_share);
  Printf.printf "interpreter: %d runs, %d steps, %d branch events\n"
    (Telemetry.find_counter snap "interp.runs")
    (Telemetry.find_counter snap "interp.steps")
    (Telemetry.find_counter snap "interp.branch_events");
  Printf.printf
    "trace cache: %d hits, %d misses; %d candidates pruned\n"
    (Telemetry.find_counter snap "ranking.trace_cache_hits")
    (Telemetry.find_counter snap "ranking.trace_cache_misses")
    (Telemetry.find_counter snap "pipeline.candidates_pruned");
  Printf.printf "staticcheck: %d candidates pruned\n"
    (Telemetry.find_counter snap "staticcheck.pruned");
  Printf.printf "wall-clock: %.2fs\n" elapsed

module J = Model.Jsonx

(* The BENCH files list object keys in sorted order, so two runs differ
   only where the measurements differ, never in layout. *)
let write_json path j =
  let oc = open_out path in
  output_string oc (J.to_string j ^ "\n");
  close_out oc

let pipeline_bench () =
  section "Pipeline stage timings (BENCH_pipeline.json)";
  let type_ids = [ "credit-card"; "ipv4"; "email"; "isbn" ] in
  let pass = pipeline_pass type_ids in
  print_pass_report pass;
  (* [elapsed_s] and [stages.*.total_s] are wall times of this cold
     pass; [counters] are counts, equal on every run at jobs 1. *)
  write_json "BENCH_pipeline.json"
    (J.Obj
       [ ( "counters",
           J.Obj
             (List.map (fun (name, v) -> (name, J.Int v))
                pass.snap.Telemetry.counters) );
         ("elapsed_s", J.Float pass.elapsed);
         ( "stages",
           J.Obj
             (List.sort
                (fun (a, _) (b, _) -> String.compare a b)
                (List.map
                   (fun (name, n, total_s) ->
                     ( name,
                       J.Obj [ ("spans", J.Int n); ("total_s", J.Float total_s) ]
                     ))
                   pass.stages)) );
         ("types", J.List (List.map (fun id -> J.Str id) type_ids));
         ("unattributed_share", J.Float pass.unattributed) ]);
  (* The pass's metrics snapshot doubles as the exposition fixture:
     `autotype stats --snapshot BENCH_telemetry.json --prom --lint` is
     the CI check that the Prometheus surface stays well-formed. *)
  write_json "BENCH_telemetry.json" (Serve.Ingest.snapshot_to_json pass.snap);
  Printf.printf "wrote BENCH_pipeline.json + BENCH_telemetry.json (%d types)\n"
    (List.length type_ids);
  if pass.unattributed > max_unattributed_share then begin
    Printf.eprintf
      "synthesis spans: the pass leaves over %.0f%% of pipeline.synthesize \
       outside its pipeline.* children\n"
      (100.0 *. max_unattributed_share);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Serving daemon under open-loop load (BENCH_serve.json)               *)
(* ------------------------------------------------------------------ *)

(* The daemon bench drives `autotype serve`'s engine (Serve.Daemon over
   a socketpair) with open-loop traffic: requests are dispatched at
   scheduled instants t0 + i/rate regardless of completions, so a slow
   server accumulates queueing delay instead of silently slowing the
   generator — latency is measured from the scheduled send time, the
   honest open-loop definition. *)

(* The validation workload a served model answers: held-out positives
   plus sampled true negatives, ~250 values per type. *)
let serve_workload ty =
  Semtypes.Registry.positive_examples ~n:50 ~seed:99 ty
  @ Eval.Benchmark.negative_test_pool ~n:200 ~seed:42 ty

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
   values), round-robin over the types, values sliced from each type's
   ~250-value [serve_workload].  [budgeted] attaches wall-clock budgets,
   which routes validation through the interpreter — where the fault
   layer's delay/kill probes live — so the chaos pass actually
   exercises degradation. *)
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
  let served, rejected = Result.get_ok (Domain.join daemon) in
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
  J.Obj
    [ ("completed", J.Int r.rr_completed);
      ("deadline_verdicts", J.Int r.rr_deadline_verdicts);
      ("degraded_columns", J.Int r.rr_degraded);
      ("errors", J.Int r.rr_errors);
      ("offered", J.Int r.rr_offered);
      ("p50_ms", J.Float r.rr_p50_ms);
      ("p95_ms", J.Float r.rr_p95_ms);
      ("p99_ms", J.Float r.rr_p99_ms);
      ("rejected", J.Int r.rr_rejected);
      ("sustained_qps", J.Float r.rr_sustained_qps);
      ("target_qps", J.Int r.rr_target_qps) ]

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
  write_json "BENCH_serve.json"
    (J.Obj
       [ ( "chaos",
           J.Obj
             [ ("deadline_ms", J.Float 30.0);
               ("degraded_total", J.Int chaos_degraded);
               ("rates", J.List (List.map rate_json chaos));
               ("rejected_total", J.Int chaos_rejected);
               ("spec", J.Str chaos_spec);
               ("value_budget_ms", J.Float 2.0) ] );
         ("clean", J.List (List.map rate_json clean));
         ("crashed", J.Bool !crashed);
         ("parity", J.Bool parity);
         ("rates", J.List (List.map (fun r -> J.Int r) rates));
         ("types", J.List (List.map (fun t -> J.Str t) serve_daemon_types)) ]);
  Printf.printf "wrote BENCH_serve.json (%d rates x 2 passes)\n"
    (List.length rates);
  if (not parity) || !crashed then exit 1


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
  let requested = if args = [] then [ "all" ] else args in
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