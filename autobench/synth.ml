(* The [synth] workload: a closed loop at jobs=1 calling
   [Pipeline.synthesize] inside this process, one call per covered type
   per pass, caches and heap carried over between calls as in a long
   [autotype compile].  The traced run replays the stages of
   [Pipeline.synthesize] through the same public functions, one span per
   layer call. *)

open Common
module P = Autotype_core.Pipeline
module R = Autotype_core.Ranking
module Neg = Autotype_core.Negative

(* Everything observable about a synthesis that an optimisation must
   not change: strategy, negatives, and the ranked list down to the
   candidate ids, DNFs and exact scores. *)
let fingerprint ~(strategy : Neg.strategy option) ~negatives
    ~(ranked : R.ranked list) =
  let strategy =
    match strategy with Some s -> Neg.strategy_to_string s | None -> "-"
  in
  let ranked =
    List.map
      (fun (r : R.ranked) ->
        Printf.sprintf "%s|%s|%.17g"
          (Repolib.Candidate.id r.R.traced.R.candidate)
          (Autotype_core.Dnf.to_string r.R.dnf)
          r.R.score)
      ranked
  in
  String.concat "\n" ((strategy :: negatives) @ ranked)

let outcome_fingerprint (o : P.outcome) =
  fingerprint ~strategy:o.P.strategy_used ~negatives:o.P.negatives
    ~ranked:o.P.ranked

type input = { ty : Semtypes.Registry.t; positives : string list }

(* All covered types in seeded order, 20 seeded positives each. *)
let make_inputs ~seed ~n_types =
  let types =
    shuffle (rng ~seed 1) (Array.of_list Semtypes.Registry.covered)
  in
  let types = Array.sub types 0 (min n_types (Array.length types)) in
  Array.map
    (fun (ty : Semtypes.Registry.t) ->
      { ty;
        positives =
          Semtypes.Registry.positive_examples ~n:20
            ~seed:(Hashtbl.hash (seed, ty.Semtypes.Registry.id))
            ty })
    types

(* --- the traced replay ------------------------------------------------ *)

type layer_counts = {
  mutable repos : int;
  mutable raw_candidates : int;
  mutable static_kept : int;
  mutable probe_kept : int;
  mutable attempts : int;
  mutable informative : int;
  mutable absint_binds : int;
  mutable loops_binds : int;
  mutable trace_runs : int;
  mutable trace_steps : int;
  mutable trace_pruned : int;
  mutable ranked_candidates : int;
}

let counts () =
  { repos = 0; raw_candidates = 0; static_kept = 0; probe_kept = 0;
    attempts = 0; informative = 0; absint_binds = 0;
    loops_binds = 0; trace_runs = 0; trace_steps = 0; trace_pruned = 0;
    ranked_candidates = 0 }

(* Which static step-budget hint sets [max_steps] for this call of
   [Driver.config_for]: the loop pass's spin hint or the abstract
   interpreter's bound (ROADMAP 4(a)).  A tie goes to absint, since
   dropping the loop hint would then change nothing. *)
let count_binding c ~input_len (k : layer_counts) =
  let max_steps = Repolib.Driver.default_config.Minilang.Interp.max_steps in
  let spin = (Repolib.Analyzer.verdict c).Repolib.Analyzer.budget_hint in
  let proved =
    Absint.Analyze.budget_hint ~input_len
      (Repolib.Analyzer.absint_facts c).Absint.Domain.bound
  in
  let binds = function Some h -> h < max_steps | None -> false in
  match (spin, proved) with
  | Some a, Some b when a < b -> if binds spin then k.loops_binds <- k.loops_binds + 1
  | _, Some _ -> if binds proved then k.absint_binds <- k.absint_binds + 1
  | Some _, None -> if binds spin then k.loops_binds <- k.loops_binds + 1
  | None, None -> ()

(* [Pipeline.synthesize] stage by stage, each public call under its own
   span; returns the fingerprint of the result. *)
let replay ~index ~(k : layer_counts) (inp : input) =
  let config = P.default_config in
  let query = inp.ty.Semtypes.Registry.name in
  let positives = inp.positives in
  let span = Spans.with_span in
  span ~key:inp.ty.Semtypes.Registry.id "synth.type" @@ fun () ->
  match positives with
  | [] -> fingerprint ~strategy:None ~negatives:[] ~ranked:[]
  | probe :: _ ->
    let repos =
      span "repolib.search" (fun () ->
          Repolib.Search.search index ~k:config.P.top_repos query)
    in
    let raw =
      span "repolib.analyzer" (fun () ->
          List.concat_map Repolib.Analyzer.candidates_of_repo repos)
    in
    let kept =
      span "staticcheck" (fun () ->
          let kept =
            List.filter
              (fun c -> (Repolib.Analyzer.verdict c).Repolib.Analyzer.rankable)
              raw
          in
          List.iter
            (fun repo -> ignore (Repolib.Analyzer.repo_diagnostics repo))
            repos;
          kept)
    in
    let candidates =
      span "repolib.driver.probe" (fun () ->
          List.filter (fun c -> Repolib.Driver.executable c ~probe) kept)
    in
    k.repos <- k.repos + List.length repos;
    k.raw_candidates <- k.raw_candidates + List.length raw;
    k.static_kept <- k.static_kept + List.length kept;
    k.probe_kept <- k.probe_kept + List.length candidates;
    let cache = R.cache_create () in
    let attempt strategy =
      span "synth.attempt" @@ fun () ->
      let negatives =
        span "core.negative" (fun () ->
            Neg.generate ~per_positive:config.P.neg_per_positive
              ~p:config.P.mutation_p ~seed:config.P.seed strategy positives)
      in
      let input_len =
        List.fold_left
          (fun acc s -> max acc (String.length s))
          0 (positives @ negatives)
      in
      let traceds =
        List.map
          (fun c ->
            let iconfig =
              span "repolib.driver.config" (fun () ->
                  Repolib.Driver.config_for ~input_len c)
            in
            count_binding c ~input_len k;
            span "core.ranking.trace" (fun () ->
                R.trace_candidate ~config:iconfig ~cache ~prune:true c
                  ~positives ~negatives))
          candidates
      in
      List.iter
        (fun (t : R.traced) ->
          k.trace_runs <-
            k.trace_runs + List.length t.R.pos_raw + List.length t.R.neg_raw;
          k.trace_steps <- k.trace_steps + t.R.steps;
          if t.R.pruned then k.trace_pruned <- k.trace_pruned + 1)
        traceds;
      let ranked =
        span "core.ranking.rank" (fun () ->
            R.rank_one ~k:config.P.k ~theta:config.P.theta R.DNF_S ~query
              traceds)
      in
      k.ranked_candidates <- k.ranked_candidates + List.length traceds;
      let informative =
        span "core.negative" (fun () ->
            List.exists (fun r -> P.found_enough config r.R.dnf) ranked)
      in
      k.attempts <- k.attempts + 1;
      if informative then k.informative <- k.informative + 1;
      (negatives, ranked, informative)
    in
    (* Algorithm 2: escalate S1 -> S2 -> S3 until some function tells
       the positives from the negatives; with none, the S3 attempt's
       unfiltered ranking stands. *)
    let rec escalate = function
      | [] -> assert false
      | s :: rest ->
        let negatives, ranked, informative = attempt s in
        if informative then
          let ranked =
            span "core.negative" (fun () ->
                List.filter (fun r -> P.found_enough config r.R.dnf) ranked)
          in
          fingerprint ~strategy:(Some s) ~negatives ~ranked
        else if rest = [] then fingerprint ~strategy:None ~negatives ~ranked
        else escalate rest
    in
    escalate [ Neg.S1; Neg.S2; Neg.S3 ]

(* --- the run ----------------------------------------------------------- *)

(* Work sizes.  A first pass over all 84 covered types took 14-17 s on
   a 2-vCPU container, so a run makes [ceil (seconds / pass_seconds)]
   whole passes: every run then synthesizes the same type mix, and
   per-type costs, which span three orders of magnitude, cannot shift
   the result with the seed. *)
let pass_seconds = 17.5

(* Per-type synthesis time within which a type counts towards
   [slo_met_frac].  Synthesis has no user-facing latency limit; 1 s is
   about twice the p90 and just above the slowest types of a first
   pass, so the metric falls as the slowest types slow down. *)
let slo_ms = 1000.0

type opts = {
  seed : int;
  seconds : int;
  n_types : int;  (** below 84 only for the smoke test *)
  tamper : bool;  (** corrupt one replay fingerprint (smoke test) *)
}

(* Set-up: the corpus index and the seeded inputs, timed. *)
let setup ~seed ~n_types =
  let t0 = now_ns () in
  let index = Repolib.Search.build_index Corpus.all_repos in
  let inputs = make_inputs ~seed ~n_types in
  (index, inputs, s_between t0 (now_ns ()))

(* The host's speed drifts within a second: back-to-back repetitions of
   the set-up alternated between spells at 11 and 16 ms, so their median
   reports whichever spell a run started in.  The timed run therefore
   repeats the set-up throughout the run, once after every
   [setup_every] synthesize calls, each time in a fresh process of this
   executable ([--setup-only]): a process of its own starts from an
   empty heap, as the run's own set-up did before the first synthesis. *)
let setup_every = 4

let setup_only (o : opts) =
  let _, _, s = setup ~seed:o.seed ~n_types:o.n_types in
  Printf.printf "%.9f\n" s

let setup_in_child (o : opts) =
  let args =
    [ Sys.executable_name; "--workload"; "synth"; "--seed"; string_of_int o.seed;
      "--setup-only" ]
    @ if o.n_types < max_int then [ "--smoke" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let line = In_channel.input_all ic in
  match (Unix.close_process_in ic, float_of_string_opt (String.trim line)) with
  | Unix.WEXITED 0, Some s -> Some s
  | _ ->
    gate false "set-up in a fresh process failed: %S" line;
    None

(* Pass over [inputs] calling [Pipeline.synthesize], and [between] after
   each call, outside its time: returns the per-call times (ms),
   fingerprints, top-1 validators, and the number of calls that
   raised. *)
let synth_pass ?(between = ignore) ~index inputs =
  let n = Array.length inputs in
  let ms = Array.make n 0.0 in
  let fps = Array.make n "" in
  let best = Array.make n None in
  let raised = ref 0 in
  Array.iteri
    (fun i inp ->
      let t0 = now_ns () in
      (match
         P.synthesize ~index ~query:inp.ty.Semtypes.Registry.name
           ~positives:inp.positives ()
       with
       | o ->
         ms.(i) <- ms_between t0 (now_ns ());
         fps.(i) <- outcome_fingerprint o;
         best.(i) <- P.best o
       | exception e ->
         ms.(i) <- ms_between t0 (now_ns ());
         incr raised;
         say "synthesize raised on %s: %s" inp.ty.Semtypes.Registry.id
           (Printexc.to_string e));
      between ())
    inputs;
  (ms, fps, best, !raised)

(* Mean Q(F) of the top-1 validators against the ground truth, on
   held-out positives and sampled true negatives. *)
let mean_quality ~seed inputs best =
  let qs = ref [] in
  Array.iteri
    (fun i inp ->
      match best.(i) with
      | None -> ()
      | Some syn ->
        let ty = inp.ty in
        let held_out_pos =
          Semtypes.Registry.positive_examples ~n:50
            ~seed:(Hashtbl.hash (seed, ty.Semtypes.Registry.id, "held-out"))
            ty
        in
        let test_neg = Eval.Benchmark.negative_test_pool ~n:200 ~seed ty in
        qs :=
          Eval.Benchmark.quality_of
            ~accepts:(Autotype_core.Synthesis.validate syn)
            ~held_out_pos ~test_neg
          :: !qs)
    inputs;
  mean (Array.of_list !qs)

(* The correctness oracle: the stage-by-stage replay must rank exactly
   as [Pipeline.synthesize] did, type by type. *)
let check_replay ~tamper inputs replay_fps synth_fps =
  if tamper && Array.length replay_fps > 0 then
    replay_fps.(0) <- replay_fps.(0) ^ "\ntampered";
  Array.iteri
    (fun i fp ->
      gate (fp = synth_fps.(i))
        "replayed ranking differs from Pipeline.synthesize on %s"
        inputs.(i).ty.Semtypes.Registry.id)
    replay_fps

(* Types replayed after an untimed run; the traced run replays all. *)
let replay_sample = 8

let run_timed (o : opts) =
  let index, inputs, setup_s = setup ~seed:o.seed ~n_types:o.n_types in
  let passes =
    max 1 (int_of_float (Float.ceil (float_of_int o.seconds /. pass_seconds)))
  in
  say "synth: %d types x %d pass(es), seed %d" (Array.length inputs) passes
    o.seed;
  let setups = ref [ setup_s ] and calls = ref 0 in
  let probe_s = ref 0.0 in
  let between () =
    incr calls;
    if !calls mod setup_every = 0 then begin
      let t0 = now_ns () in
      Option.iter (fun s -> setups := s :: !setups) (setup_in_child o);
      probe_s := !probe_s +. s_between t0 (now_ns ())
    end
  in
  let wall0 = now_ns () and cpu0 = self_cpu_s () in
  let results = List.init passes (fun _ -> synth_pass ~between ~index inputs) in
  let wall = s_between wall0 (now_ns ()) -. !probe_s and cpu = self_cpu_s () -. cpu0 in
  let ms = Array.concat (List.map (fun (ms, _, _, _) -> ms) results) in
  let best = Array.concat (List.map (fun (_, _, b, _) -> b) results) in
  let raised = List.fold_left (fun a (_, _, _, r) -> a + r) 0 results in
  let _, fps1, best1, _ = List.hd results in
  (* Later passes see warm caches and a grown heap; they must still
     produce exactly the first pass's output. *)
  List.iteri
    (fun p (_, fps, _, _) ->
      Array.iteri
        (fun i fp ->
          gate (fp = fps1.(i)) "pass %d output differs from pass 1 on %s"
            (p + 1) inputs.(i).ty.Semtypes.Registry.id)
        fps)
    results;
  let peak = peak_rss_mb (Unix.getpid ()) in
  let sample = Array.sub inputs 0 (min replay_sample (Array.length inputs)) in
  check_replay ~tamper:o.tamper sample
    (Array.map (replay ~index ~k:(counts ())) sample)
    fps1;
  let attempted = Array.length ms in
  let count p = Array.fold_left ( + ) 0 (Array.mapi (fun i b -> if p i b then 1 else 0) best) in
  let validators = count (fun _ b -> b <> None) in
  let within_slo = count (fun i b -> b <> None && ms.(i) <= slo_ms) in
  let quality = mean_quality ~seed:o.seed inputs best1 in
  let setups = Array.of_list (List.rev !setups) in
  say "per-type synthesis: p50 %.2f ms, p90 %.2f ms (n=%d); p99 %.2f ms, max %.2f ms"
    (percentile 50.0 ms) (percentile 90.0 ms) attempted (percentile 99.0 ms) (fmax ms);
  say "diagnostics: cpu %.2f s over wall %.2f s (%.0f%%); %d call(s) with no validator"
    cpu wall (100.0 *. cpu /. wall) (attempted - validators);
  say "setup: median %.4f s (n=%d): %s s" (median setups) (Array.length setups)
    (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.4f") setups)));
  ( attempted,
    raised,
    [ metric "setup_s" "s" (median setups);
      metric "throughput_per_s" "1/s" (float_of_int attempted /. (fsum ms /. 1000.0));
      metric "p50_ms" "ms" (percentile 50.0 ms);
      metric "p90_ms" "ms" (percentile 90.0 ms);
      metric "ok_frac" "fraction" (ratio validators attempted);
      metric "slo_met_frac" "fraction" (ratio within_slo attempted);
      metric "quality" "fraction" quality;
      metric "peak_rss_mb" "MB" peak ] )

let run_traced (o : opts) =
  let index, inputs, _ = setup ~seed:o.seed ~n_types:o.n_types in
  let n = Array.length inputs in
  say "synth (traced): %d types, untraced pass then traced replay" n;
  let plain_ms, plain_fps, _, raised = synth_pass ~index inputs in
  let k = counts () in
  Spans.reset ();
  Spans.on := true;
  let replay_fps = Array.map (replay ~index ~k) inputs in
  Spans.on := false;
  check_replay ~tamper:o.tamper inputs replay_fps plain_fps;
  let tbl = Spans.self_by_name () in
  let type_spans = Array.of_list (List.rev (Spans.spans_named "synth.type")) in
  let traced_ms =
    Array.map (fun s -> Int64.to_float (Spans.duration_ns s) /. 1e6) type_spans
  in
  let total_ms = fsum traced_ms in
  let unattributed =
    Spans.self_ms tbl "synth.type" +. Spans.self_ms tbl "synth.attempt"
  in
  let max_unattributed_share = 0.02 in
  gate
    (unattributed <= max_unattributed_share *. total_ms)
    "unattributed time %.1f ms is over %.0f%% of %.1f ms" unattributed
    (100.0 *. max_unattributed_share) total_ms;
  let p50_plain = percentile 50.0 plain_ms and p50_traced = percentile 50.0 traced_ms in
  say "tracing overhead: traced p50 %.2f ms vs untraced p50 %.2f ms (%+.1f%%, n=%d)"
    p50_traced p50_plain (100.0 *. (p50_traced /. p50_plain -. 1.0)) n;
  let layer name = Spans.self_ms tbl name in
  let trace_ms = layer "core.ranking.trace" in
  List.iter
    (fun name ->
      say "  %-24s %9.1f ms  %5.1f%%" name (layer name)
        (100.0 *. layer name /. total_ms))
    [ "repolib.search"; "repolib.analyzer"; "staticcheck";
      "repolib.driver.probe"; "core.negative"; "repolib.driver.config";
      "core.ranking.trace"; "core.ranking.rank" ];
  say "  %-24s %9.1f ms  %5.1f%% (gate: under %.0f%%)" "unattributed" unattributed
    (100.0 *. unattributed /. total_ms) (100.0 *. max_unattributed_share);
  ensure_out_dir ();
  Spans.write_jsonl (Filename.concat out_dir "spans-synth.jsonl");
  ( n * 2,
    raised,
    [ metric "repolib.search.busy_ms" "ms" (layer "repolib.search");
      metric "repolib.search.repos" "count" (float_of_int k.repos);
      metric "repolib.analyzer.busy_ms" "ms" (layer "repolib.analyzer");
      metric "repolib.analyzer.candidates" "count" (float_of_int k.raw_candidates);
      metric "staticcheck.busy_ms" "ms" (layer "staticcheck");
      metric "staticcheck.kept_frac" "fraction" (ratio k.static_kept k.raw_candidates);
      metric "repolib.driver.probe.busy_ms" "ms" (layer "repolib.driver.probe");
      metric "repolib.driver.probe.kept_frac" "fraction" (ratio k.probe_kept k.static_kept);
      metric "repolib.driver.config.busy_ms" "ms" (layer "repolib.driver.config");
      metric "repolib.driver.config.absint_binds" "count" (float_of_int k.absint_binds);
      metric "repolib.driver.config.loops_binds" "count" (float_of_int k.loops_binds);
      metric "core.negative.busy_ms" "ms" (layer "core.negative");
      metric "core.negative.attempts" "count" (float_of_int k.attempts);
      metric "core.negative.informative_frac" "fraction" (ratio k.informative k.attempts);
      metric "core.ranking.trace.busy_ms" "ms" trace_ms;
      metric "core.ranking.trace.runs" "count" (float_of_int k.trace_runs);
      metric "core.ranking.trace.steps" "count" (float_of_int k.trace_steps);
      metric "core.ranking.trace.steps_per_s" "1/s"
        (if trace_ms > 0.0 then float_of_int k.trace_steps /. (trace_ms /. 1000.0) else 0.0);
      metric "core.ranking.trace.pruned" "count" (float_of_int k.trace_pruned);
      metric "core.ranking.rank.busy_ms" "ms" (layer "core.ranking.rank");
      metric "core.ranking.rank.candidates" "count" (float_of_int k.ranked_candidates);
      metric "synth.unattributed_ms" "ms" unattributed ] )
