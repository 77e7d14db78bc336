(* autobench: one command for every workload.

     main.exe --workload synth|serve_small|serve_columns --seed N
              --seconds S --trace 0|1 [--autotype PATH]

   Prints a human-readable report, then, as its last line, one JSON
   object with the workload's metrics.  Exits 1 when any correctness
   gate fails. *)

let usage =
  "main.exe --workload W --seed N --seconds S --trace 0|1 [--autotype PATH]"

(* Every per-layer metric, printed by every traced run: a layer a
   workload never calls reports 0. *)
let per_layer =
  [ ("repolib.search.busy_ms", "ms"); ("repolib.search.repos", "count");
    ("repolib.analyzer.busy_ms", "ms"); ("repolib.analyzer.candidates", "count");
    ("staticcheck.busy_ms", "ms"); ("staticcheck.kept_frac", "fraction");
    ("repolib.driver.probe.busy_ms", "ms");
    ("repolib.driver.probe.kept_frac", "fraction");
    ("repolib.driver.config.busy_ms", "ms");
    ("repolib.driver.config.absint_binds", "count");
    ("repolib.driver.config.loops_binds", "count");
    ("core.negative.busy_ms", "ms"); ("core.negative.attempts", "count");
    ("core.negative.informative_frac", "fraction");
    ("core.ranking.trace.busy_ms", "ms"); ("core.ranking.trace.runs", "count");
    ("core.ranking.trace.steps", "count");
    ("core.ranking.trace.steps_per_s", "1/s");
    ("core.ranking.trace.pruned", "count");
    ("core.ranking.rank.busy_ms", "ms");
    ("core.ranking.rank.candidates", "count");
    ("synth.unattributed_ms", "ms");
    ("serve.frame.busy_us", "us"); ("serve.frame.bytes", "bytes");
    ("serve.protocol.decode_us", "us"); ("serve.protocol.encode_us", "us");
    ("model.registry.load_us", "us"); ("model.registry.find_us", "us");
    ("model.registry.hit_frac", "fraction");
    ("tablecorpus.detect.build_us", "us"); ("tablecorpus.detect.values", "count");
    ("tablecorpus.detect.fastpath_frac", "fraction");
    ("tablecorpus.detect.fast_us_per_value", "us");
    ("tablecorpus.detect.vm_us_per_value", "us");
    ("tablecorpus.detect.deadline_hits", "count");
    ("tablecorpus.detect.issn_us_first_quarter", "us");
    ("tablecorpus.detect.issn_us_last_quarter", "us");
    ("serve.daemon.requests_per_group", "requests");
    ("serve.daemon.rejected", "count"); ("serve.transport_us", "us");
    ("loadgen.lag_p99_ms", "ms") ]

let complete_layers measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.Common.name = name) measured with
      | Some m -> m
      | None -> Common.metric name unit_ 0.0)
    per_layer

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 in
  let trace = ref 0 and autotype = ref "" in
  let smoke = ref false and tamper = ref "" and setup_only = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload, "synth | serve_small | serve_columns");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "target run length; sizes every phase");
      ("--trace", Arg.Set_int trace, "1: traced per-layer run");
      ("--autotype", Arg.Set_string autotype, "path of the autotype executable");
      ("--smoke", Arg.Set smoke, "tiny work counts (smoke test only)");
      ("--tamper", Arg.Set_string tamper,
       "fingerprint|reply: corrupt one output (smoke test only)");
      ("--setup-only", Arg.Set setup_only,
       "synth: time one set-up, print its seconds and exit (the timed run's repetitions)") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let traced = !trace = 1 in
  let attempted, failed, metrics =
    match !workload with
    | "synth" ->
      let o =
        { Synth.seed = !seed; seconds = !seconds;
          n_types = (if !smoke then 3 else max_int);
          tamper = !tamper = "fingerprint" }
      in
      if !setup_only then begin
        Synth.setup_only o;
        exit 0
      end;
      if traced then Synth.run_traced o else Synth.run_timed o
    | ("serve_small" | "serve_columns") as w ->
      if !autotype = "" || not (Sys.file_exists !autotype) then begin
        prerr_endline "serve workloads need --autotype PATH";
        exit 2
      end;
      Serve_bench.run
        { Serve_bench.workload =
            (if w = "serve_small" then Serve_bench.Small else Serve_bench.Columns);
          seed = !seed; seconds = !seconds; trace = traced;
          autotype = !autotype; smoke = !smoke;
          tamper = !tamper = "reply" }
    | w ->
      Printf.eprintf "unknown workload %S\n%s\n" w usage;
      exit 2
  in
  let metrics = if traced then complete_layers metrics else metrics in
  let correct = !Common.failures = [] in
  Common.result_line ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
