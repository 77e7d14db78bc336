(** Command-line interface for AutoType.

    - [autotype synth --query "credit card" --examples ex.txt]
      synthesizes type-detection functions from a keyword and a file of
      positive examples (one per line);
    - [autotype synth --type credit-card] uses a benchmark type's
      generated examples instead;
    - [autotype compile --type credit-card --out models/] synthesizes
      once and persists the top-1 validator as a self-contained model
      artifact in a registry directory (compile/serve split);
    - [autotype validate --type credit-card VALUE ...] checks values
      with the synthesized top-1 function; with [--model FILE] it serves
      a compiled artifact instead of re-running the pipeline;
    - [autotype detect --column file.txt] reads one column of values and
      reports which benchmark types match; with [--models DIR] it serves
      every compiled model in the registry instead of re-synthesizing;
    - [autotype serve --models DIR] runs the persistent serving daemon:
      framed JSONL requests (validate/detect/stats/health/shutdown) over
      stdio or [--socket PATH], with per-cycle admission control and
      same-type request batching (DESIGN.md §15);
    - [autotype lint] runs the static analyzer over corpus MiniScript
      sources ([--repo NAME], [--query KW], or the whole corpus;
      [--strict] exits non-zero on errors);
    - [autotype types] lists the 112-type benchmark registry;
    - [autotype transforms --type credit-card] prints harvested semantic
      transformations. *)

open Cmdliner

(* File ingestion lives in Serve.Ingest, shared with the daemon:
   [read_examples] trims and drops blank lines (an examples file),
   [read_column] preserves empty lines as real values (a data column),
   [read_file] closes its channel on every path and turns truncation
   into [Error] instead of an escaped [End_of_file]. *)

(* ------------------------------ telemetry --------------------------- *)

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print a table of telemetry counters and histograms after \
                 the command.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record stage spans and write them to $(docv) as JSON \
                 Lines (one object per span).")

let jobs_arg =
  Arg.(value & opt int 0
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Trace candidates on $(docv) domains (0 = auto, capped at \
                 the machine's recommended domain count; 1 = sequential). \
                 Results are identical at any job count.")

(** Resolve [--jobs] and run [f] with a pool when N > 1.  [None] keeps
    the sequential path free of any pool machinery. *)
let with_jobs jobs f =
  let jobs = if jobs <= 0 then Exec.default_jobs () else jobs in
  if jobs = 1 then f None
  else Exec.Pool.with_pool ~jobs (fun pool -> f (Some pool))

(** Run [f] with telemetry enabled when [--stats]/[--trace] ask for it,
    then print the metrics table and/or write the JSONL trace.  Every
    invocation runs under a fresh request context, so spans and flight
    events carry a trace id even when stats collection is off; a
    failing command triggers a flight-recorder dump (when a dump path
    is configured). *)
let with_telemetry ~stats ~trace_file f =
  let wanted = stats || trace_file <> None in
  if wanted then Telemetry.enable ();
  let ctx = Telemetry.Context.root () in
  let code = Telemetry.Context.with_context ctx f in
  if code <> 0 then Telemetry.Flight.trigger ~reason:"nonzero_exit";
  if wanted then begin
    Telemetry.disable ();
    (match trace_file with
     | Some path ->
       (match Telemetry.write_jsonl path with
        | Ok () ->
          Printf.printf "wrote %d spans to %s\n"
            (List.length (Telemetry.spans ())) path
        | Error msg -> Printf.eprintf "cannot write trace: %s\n" msg)
     | None -> ());
    if stats then begin
      print_newline ();
      Printf.printf "trace-id: %s\n" (Telemetry.Context.trace_id_hex ctx);
      (* A model fast-path run records no spans at all; say so instead
         of printing a silent empty summary. *)
      if Telemetry.spans () = [] then print_endline "no spans recorded";
      print_string (Telemetry.render_metrics (Telemetry.snapshot ()))
    end
  end;
  code

(** One-line per-stage wall-clock summary of a synthesize run. *)
let print_stage_summary () =
  let stage name =
    match Telemetry.total_ns name with
    | 0L -> None
    | ns ->
      let short =
        match String.rindex_opt name '.' with
        | Some i -> String.sub name (i + 1) (String.length name - i - 1)
        | None -> name
      in
      Some (Printf.sprintf "%s %s" short (Telemetry.format_ns ns))
  in
  let parts =
    List.filter_map stage
      [ "pipeline.search"; "pipeline.analyze"; "pipeline.staticcheck";
        "pipeline.probe"; "pipeline.negatives"; "pipeline.trace";
        "pipeline.rank" ]
  in
  if parts <> [] then
    Printf.printf "stages: %s\n" (String.concat " | " parts)
  else if Telemetry.spans () = [] then
    (* Model fast-path (or nothing ran): make the absence explicit
       rather than silently printing no summary at all. *)
    print_endline "stages: no spans recorded"

let positives_for ~type_id ~examples_file ~query =
  match (examples_file, type_id) with
  | Some path, _ ->
    (match Serve.Ingest.read_examples path with
     | Ok lines -> Ok (lines, Option.value query ~default:"data value")
     | Error msg -> Error (Printf.sprintf "cannot read %s: %s" path msg))
  | None, Some id ->
    (match Semtypes.Registry.find id with
     | Some ty ->
       Ok
         ( Semtypes.Registry.positive_examples ~n:20 ~seed:11 ty,
           Option.value query ~default:ty.Semtypes.Registry.name )
     | None -> Error (Printf.sprintf "unknown benchmark type %S" id))
  | None, None -> Error "provide --examples FILE or --type ID"

let synthesize_outcome ?pool ~type_id ~examples_file ~query () =
  match positives_for ~type_id ~examples_file ~query with
  | Error e -> Error e
  | Ok (positives, q) ->
    if positives = [] then Error "no positive examples"
    else
      Ok
        (Autotype_core.Pipeline.synthesize ?pool
           ~index:(Corpus.search_index ()) ~query:q ~positives ())

(** Per-run serve-path summary printed under [--stats]. *)
let print_serve_summary () =
  let snap = Telemetry.snapshot () in
  let c name = Telemetry.find_counter snap name in
  Printf.printf
    "serve: %d model loads (%d failed), cache %d hits / %d misses\n"
    (c "model.loads") (c "model.load_failures") (c "serve.cache_hits")
    (c "serve.cache_misses")

(* ------------------------------- synth ----------------------------- *)

let type_arg =
  Arg.(value & opt (some string) None
       & info [ "t"; "type" ] ~docv:"ID" ~doc:"Benchmark type id (see $(b,types)).")

let examples_arg =
  Arg.(value & opt (some file) None
       & info [ "e"; "examples" ] ~docv:"FILE"
           ~doc:"File with positive examples, one per line.")

let query_arg =
  Arg.(value & opt (some string) None
       & info [ "q"; "query" ] ~docv:"KEYWORD" ~doc:"Search keyword for the type.")

let top_arg =
  Arg.(value & opt int 5 & info [ "top" ] ~docv:"N" ~doc:"Show the top N functions.")

let synth_cmd =
  let run type_id examples_file query top stats trace_file jobs =
    with_telemetry ~stats ~trace_file @@ fun () ->
    with_jobs jobs @@ fun pool ->
    match synthesize_outcome ?pool ~type_id ~examples_file ~query () with
    | Error e -> prerr_endline e; 1
    | Ok outcome ->
      Printf.printf "searched %d repositories, %d candidate functions\n"
        outcome.Autotype_core.Pipeline.repos_searched
        outcome.Autotype_core.Pipeline.candidates_tried;
      if Telemetry.enabled () then print_stage_summary ();
      (match outcome.Autotype_core.Pipeline.strategy_used with
       | Some s ->
         Printf.printf "negatives: mutation strategy %s\n"
           (Autotype_core.Negative.strategy_to_string s)
       | None -> print_endline "negatives: no strategy separated P from N");
      List.iteri
        (fun i (r : Autotype_core.Ranking.ranked) ->
          if i < top then begin
            Printf.printf "%d. %s\n" (i + 1)
              (Repolib.Candidate.describe
                 r.Autotype_core.Ranking.traced.Autotype_core.Ranking.candidate);
            Printf.printf "   DNF: %s\n"
              (Autotype_core.Dnf.to_string r.Autotype_core.Ranking.dnf)
          end)
        outcome.Autotype_core.Pipeline.ranked;
      0
  in
  Cmd.v (Cmd.info "synth" ~doc:"Synthesize type-detection functions")
    Term.(const run $ type_arg $ examples_arg $ query_arg $ top_arg
          $ stats_arg $ trace_arg $ jobs_arg)

(* ------------------------------ compile ---------------------------- *)

let types_all_arg =
  Arg.(value & opt_all string []
       & info [ "t"; "type" ] ~docv:"ID"
           ~doc:"Benchmark type id to compile (repeatable).")

let out_arg =
  Arg.(value & opt string "models"
       & info [ "o"; "out" ] ~docv:"DIR"
           ~doc:"Model registry directory to write artifacts into \
                 (created if missing).")

let compile_one ?pool registry ~type_id ~examples_file ~query () =
  match positives_for ~type_id ~examples_file ~query with
  | Error e -> Error e
  | Ok ([], _) -> Error "no positive examples"
  | Ok (positives, q) ->
    let compiled =
      Autotype_core.Pipeline.compile ?pool ~index:(Corpus.search_index ())
        ~query:q ~positives ()
    in
    (match Model.Artifact.of_compiled compiled with
     | None ->
       Error
         (Printf.sprintf "no function synthesized for %S — nothing to compile"
            q)
     | Some artifact ->
       let artifact =
         match type_id with
         | Some id -> Model.Artifact.with_type_id id artifact
         | None -> artifact
       in
       (match Model.Registry.save registry artifact with
        | Error msg -> Error msg
        | Ok path ->
          let o = compiled.Autotype_core.Pipeline.c_outcome in
          let dnf = artifact.Model.Artifact.dnf in
          Printf.printf
            "compiled %-14s -> %s\n\
            \  function: %s\n\
            \  coverage: %d/%d positives, %d/%d negatives (strategy %s)\n"
            (Model.Artifact.key artifact) path
            (Repolib.Candidate.describe artifact.Model.Artifact.candidate)
            dnf.Autotype_core.Dnf.cov_p dnf.Autotype_core.Dnf.n_pos
            dnf.Autotype_core.Dnf.cov_n dnf.Autotype_core.Dnf.n_neg
            (match o.Autotype_core.Pipeline.strategy_used with
             | Some s -> Autotype_core.Negative.strategy_to_string s
             | None -> "-");
          Ok ()))

let compile_cmd =
  let run type_ids examples_file query out stats trace_file jobs =
    with_telemetry ~stats ~trace_file @@ fun () ->
    with_jobs jobs @@ fun pool ->
    match Model.Registry.create_dir out with
    | Error msg -> Printf.eprintf "cannot open registry: %s\n" msg; 1
    | Ok registry ->
      let targets =
        match (type_ids, examples_file) with
        | [], None -> Error "provide --type ID (repeatable) or --examples FILE"
        | [], Some _ -> Ok [ None ]
        | ids, None -> Ok (List.map (fun id -> Some id) ids)
        | _ :: _, Some _ -> Error "--type and --examples are exclusive"
      in
      (match targets with
       | Error e -> prerr_endline e; 1
       | Ok targets ->
         let code =
           List.fold_left
             (fun code type_id ->
               match
                 compile_one ?pool registry ~type_id ~examples_file ~query ()
               with
               | Ok () -> code
               | Error e -> prerr_endline e; 1)
             0 targets
         in
         if code = 0 then
           Printf.printf "registry %s now serves %d model(s)\n"
             (Model.Registry.dir registry)
             (List.length (Model.Registry.keys registry));
         if Telemetry.enabled () then print_stage_summary ();
         code)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Synthesize once and persist model artifacts for serving")
    Term.(const run $ types_all_arg $ examples_arg $ query_arg $ out_arg
          $ stats_arg $ trace_arg $ jobs_arg)

(* ------------------------------ validate --------------------------- *)

let values_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"VALUE")

let model_arg =
  Arg.(value & opt (some string) None
       & info [ "m"; "model" ] ~docv:"FILE"
           ~doc:"Serve a compiled model artifact instead of re-running \
                 the synthesis pipeline.")

let deadline_arg =
  Arg.(value & opt (some float) None
       & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Wall-clock budget for the whole request, measured from \
                 when serving starts.  Once it passes, remaining work \
                 degrades gracefully instead of running.")

let value_budget_arg =
  Arg.(value & opt (some float) None
       & info [ "value-budget-ms" ] ~docv:"MS"
           ~doc:"Wall-clock budget for validating a single value.  A \
                 value that exceeds it reports DEADLINE and the batch \
                 continues.")

(** Print VALID/invalid per value.  With budgets, a value cut by its
    own budget prints DEADLINE and a batch-deadline cut skips the tail —
    the request still exits 0 (degradation, not failure).  Verdicts come
    from {!Tablecorpus.Detect.serve}, the route the serving daemon
    answers with, so the two cannot diverge. *)
let validate_values ?value_budget_ms ?deadline_ms syn model values =
  Printf.printf "using %s\n"
    (Repolib.Candidate.describe syn.Autotype_core.Synthesis.candidate);
  let budgets = Tablecorpus.Detect.budgets ?value_budget_ms ?deadline_ms () in
  let verdicts = Tablecorpus.Detect.serve ~budgets model values in
  List.iter2
    (fun v verdict ->
      match verdict with
      | Tablecorpus.Detect.V_skipped ->
        Printf.printf "%-30s SKIPPED (batch deadline)\n" v
      | _ ->
        Printf.printf "%-30s %s\n" v
          (Tablecorpus.Detect.value_verdict_to_string verdict))
    values verdicts;
  0

let validate_cmd =
  let run type_id examples_file query model values deadline_ms value_budget_ms
      stats trace_file jobs =
    with_telemetry ~stats ~trace_file @@ fun () ->
    match model with
    | Some path ->
      (* Serve path: the artifact is self-contained — never fall back
         to a pipeline re-run on a bad file; report exactly why. *)
      (match Model.Artifact.load path with
       | Error e ->
         Printf.eprintf "%s: %s\n" path (Model.Artifact.load_error_to_string e);
         1
       | Ok artifact ->
         Printf.printf "model %s (query %S, format v%d)\n"
           (Model.Artifact.key artifact)
           artifact.Model.Artifact.provenance.Model.Artifact.query
           Model.Artifact.format_version;
         let entry = Model.Registry.entry_of_artifact artifact in
         let code =
           validate_values ?value_budget_ms ?deadline_ms
             entry.Model.Registry.synthesis (Tablecorpus.Detect.Loaded entry)
             values
         in
         if Telemetry.enabled () then print_serve_summary ();
         code)
    | None ->
      with_jobs jobs @@ fun pool ->
      (match synthesize_outcome ?pool ~type_id ~examples_file ~query () with
       | Error e -> prerr_endline e; 1
       | Ok outcome ->
         (match Autotype_core.Pipeline.best outcome with
          | None -> prerr_endline "no function synthesized"; 1
          | Some syn ->
            validate_values ?value_budget_ms ?deadline_ms syn
              (Tablecorpus.Detect.Synthesized syn) values))
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Validate values with a synthesized function")
    Term.(const run $ type_arg $ examples_arg $ query_arg $ model_arg
          $ values_arg $ deadline_arg $ value_budget_arg $ stats_arg
          $ trace_arg $ jobs_arg)

(* ------------------------------- detect ---------------------------- *)

let column_arg =
  Arg.(required & opt (some file) None
       & info [ "column" ] ~docv:"FILE" ~doc:"File with one column value per line.")

let models_arg =
  Arg.(value & opt (some string) None
       & info [ "models" ] ~docv:"DIR"
           ~doc:"Serve compiled model artifacts from this registry \
                 directory instead of re-synthesizing each type.")

(** [(key, model)] for every model in a registry; [Error] (the
    load-error string) as soon as any artifact is bad — the serve path
    must never silently re-run the pipeline. *)
let served_models registry =
  List.fold_left
    (fun acc key ->
      match acc with
      | Error _ as e -> e
      | Ok models ->
        (match Model.Registry.find registry key with
         | Error e -> Error (Model.Artifact.load_error_to_string e)
         | Ok entry -> Ok ((key, Tablecorpus.Detect.Loaded entry) :: models)))
    (Ok []) (Model.Registry.keys registry)

(** Scan one column against every [(type id, model)]: each column
    verdict comes from {!Tablecorpus.Detect.column_verdict} over the
    serve route, so a slow value is cut by its own budget and a passed
    batch deadline degrades the remaining models instead of failing the
    request. *)
let scan ?value_budget_ms ?deadline_ms models values =
  let budgets = Tablecorpus.Detect.budgets ?value_budget_ms ?deadline_ms () in
  let verdicts =
    List.map
      (fun (id, model) ->
        ( id,
          Tablecorpus.Detect.column_verdict
            (Tablecorpus.Detect.serve ~budgets model values) ))
      models
  in
  let hits =
    List.filter_map
      (function
        | id, Tablecorpus.Detect.Column_match frac -> Some (id, frac)
        | _ -> None)
      verdicts
  in
  (match hits with
   | [] -> print_endline "no rich semantic type detected"
   | hits ->
     List.iter
       (fun (id, frac) ->
         Printf.printf "detected type %s (%.0f%% of values pass)\n" id
           (100.0 *. frac))
       hits);
  List.iter
    (function
      | id, Tablecorpus.Detect.Column_degraded { seen; accepted; total } ->
        Printf.printf
          "type %s: degraded (deadline after %d/%d values, %d accepted)\n" id
          seen total accepted
      | _ -> ())
    verdicts

let detect_cmd =
  let run column models deadline_ms value_budget_ms stats trace_file jobs =
    with_telemetry ~stats ~trace_file @@ fun () ->
    (* A column is data, not formatting: empty lines are real (empty)
       values and count in the detection denominator. *)
    match Serve.Ingest.read_column column with
    | Error msg ->
      Printf.eprintf "cannot read %s: %s\n" column msg;
      1
    | Ok [] -> prerr_endline "empty column"; 1
    | Ok values -> begin
      match models with
      | Some dir -> begin
        (* Serve path: every detector comes from a compiled artifact;
           any bad artifact is a hard error, never a pipeline re-run. *)
        match Model.Registry.open_dir dir with
        | Error msg ->
          Printf.eprintf "cannot open registry %s: %s\n" dir msg;
          1
        | Ok registry ->
          (match served_models registry with
           | Error msg ->
             Printf.eprintf "cannot serve from %s: %s\n" dir msg;
             1
           | Ok models ->
             Printf.printf
               "column of %d values; serving %d compiled model(s)...\n"
               (List.length values) (List.length models);
             scan ?value_budget_ms ?deadline_ms models values;
             if Telemetry.enabled () then print_serve_summary ();
             0)
      end
      | None ->
        with_jobs jobs @@ fun pool ->
        Printf.printf "column of %d values; scanning %d popular types...\n"
          (List.length values)
          (List.length Semtypes.Registry.popular);
        let models =
          List.filter_map
            (fun (ty : Semtypes.Registry.t) ->
              Option.map
                (fun syn ->
                  (ty.Semtypes.Registry.id, Tablecorpus.Detect.Synthesized syn))
                (Tablecorpus.Detect.synthesize ?pool ty))
            Semtypes.Registry.popular
        in
        scan ?value_budget_ms ?deadline_ms models values;
        0
    end
  in
  Cmd.v (Cmd.info "detect" ~doc:"Detect the semantic type of a column")
    Term.(const run $ column_arg $ models_arg $ deadline_arg
          $ value_budget_arg $ stats_arg $ trace_arg $ jobs_arg)

(* -------------------------------- stats ---------------------------- *)

let snapshot_arg =
  Arg.(required & opt (some file) None
       & info [ "snapshot" ] ~docv:"FILE"
           ~doc:"Metrics snapshot file to render, as the bench harness \
                 writes it ($(b,BENCH_telemetry.json)) or $(b,--json) \
                 prints it.")

let prom_arg =
  Arg.(value & flag
       & info [ "prom" ]
           ~doc:"Render the Prometheus text exposition format.")

let json_arg =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Render the snapshot JSON (sorted names, exact floats).")

let lint_flag_arg =
  Arg.(value & flag
       & info [ "lint" ]
           ~doc:"Lint the Prometheus exposition (metric names, \
                 HELP/TYPE, duplicate families); exit non-zero on \
                 malformed metrics.")

let stats_cmd =
  let run path prom json lint =
    if prom && json then begin
      prerr_endline "--prom and --json are exclusive";
      2
    end
    else
      let loaded =
        match Serve.Ingest.read_file path with
        | Error msg -> Error (Printf.sprintf "cannot read %s: %s" path msg)
        | Ok text ->
          Result.map_error
            (fun msg -> path ^ ": " ^ msg)
            (Serve.Ingest.snapshot_of_string text)
      in
      match loaded with
      | Error msg -> prerr_endline msg; 1
      | Ok snap ->
        let prom_text () = Telemetry.Expose.render_prometheus snap in
        if prom then print_string (prom_text ())
        else if json then
          print_endline
            (Model.Jsonx.to_string (Serve.Ingest.snapshot_to_json snap))
        else begin
          let table = Telemetry.render_metrics snap in
          if table = "" then print_endline "no metrics recorded"
          else print_string table
        end;
        if lint then begin
          match Telemetry.Expose.lint (prom_text ()) with
          | Ok n ->
            Printf.eprintf "exposition OK: %d well-formed families\n" n;
            0
          | Error msgs ->
            List.iter
              (fun m -> Printf.eprintf "exposition lint: %s\n" m)
              msgs;
            1
        end
        else 0
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Show the metrics of a snapshot file")
    Term.(const run $ snapshot_arg $ prom_arg $ json_arg $ lint_flag_arg)

(* -------------------------------- serve ---------------------------- *)

let serve_models_arg =
  Arg.(required & opt (some string) None
       & info [ "models" ] ~docv:"DIR"
           ~doc:"Model registry directory to serve compiled artifacts \
                 from.")

let socket_path_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on a Unix domain socket at $(docv) (any number \
                 of concurrent connections).  Without it the daemon \
                 speaks the protocol on stdin/stdout.")

let stdio_flag_arg =
  Arg.(value & flag
       & info [ "stdio" ]
           ~doc:"Serve one connection on stdin/stdout (the default; \
                 exclusive with $(b,--socket)).")

let max_inflight_arg =
  Arg.(value & opt int Serve.Daemon.default_max_inflight
       & info [ "max-inflight" ] ~docv:"K"
           ~doc:"Admission budget: at most $(docv) requests are \
                 admitted per drain cycle, the rest are answered \
                 $(i,overloaded) instead of queueing.")

let serve_cmd =
  let run models socket stdio max_inflight stats trace_file jobs =
    with_telemetry ~stats ~trace_file @@ fun () ->
    if socket <> None && stdio then begin
      prerr_endline "--socket and --stdio are exclusive";
      2
    end
    else if max_inflight < 1 then begin
      Printf.eprintf "--max-inflight must be at least 1 (got %d)\n"
        max_inflight;
      2
    end
    else
      match Model.Registry.open_dir models with
      | Error msg -> Printf.eprintf "cannot open registry: %s\n" msg; 1
      | Ok registry ->
        with_jobs jobs @@ fun pool ->
        let cfg = Serve.Daemon.config ?pool ~max_inflight registry in
        (* All diagnostics go to stderr: in stdio mode stdout is the
           protocol channel. *)
        let models_n = List.length (Model.Registry.keys registry) in
        let outcome =
          match socket with
          | Some path ->
            Printf.eprintf "serving %d model(s) on %s\n%!" models_n path;
            Serve.Daemon.run_socket cfg ~path
          | None ->
            Printf.eprintf "serving %d model(s) on stdio\n%!" models_n;
            Serve.Daemon.run_fds cfg ~in_fd:Unix.stdin ~out_fd:Unix.stdout
        in
        match outcome with
        | Error msg -> Printf.eprintf "cannot serve: %s\n" msg; 1
        | Ok (served, rejected) ->
          Printf.eprintf "daemon exit: %d request(s) served, %d rejected\n%!"
            served rejected;
          0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent serving daemon (framed JSONL over stdio \
             or a Unix socket)")
    Term.(const run $ serve_models_arg $ socket_path_arg $ stdio_flag_arg
          $ max_inflight_arg $ stats_arg $ trace_arg $ jobs_arg)

(* -------------------------------- lint ----------------------------- *)

let lint_repo_arg =
  Arg.(value & opt (some string) None
       & info [ "repo" ] ~docv:"NAME"
           ~doc:"Lint only the corpus repository named $(docv).")

let strict_arg =
  Arg.(value & flag
       & info [ "strict" ]
           ~doc:"Exit non-zero when any error-severity diagnostic is found.")

let lint_json_arg =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Emit machine-readable diagnostics as one JSON object \
                 (per-repo diagnostic lists with file, line, code, \
                 severity, message, plus summary counts).")

let lint_verbose_arg =
  Arg.(value & flag
       & info [ "verbose" ]
           ~doc:"Also report abstract-interpretation facts (purity, step \
                 bound, symbolic summary) for every candidate function.")

(** JSON shape for one diagnostic: the fields a CI annotator needs. *)
let json_of_diag (d : Staticcheck.Diag.t) : Model.Jsonx.t =
  Model.Jsonx.Obj
    [ ("file", Model.Jsonx.Str d.Staticcheck.Diag.site.Minilang.Ast.file);
      ("line", Model.Jsonx.Int d.Staticcheck.Diag.site.Minilang.Ast.line);
      ("code", Model.Jsonx.Str d.Staticcheck.Diag.code);
      ("severity",
       Model.Jsonx.Str
         (Staticcheck.Diag.severity_to_string d.Staticcheck.Diag.severity));
      ("message", Model.Jsonx.Str d.Staticcheck.Diag.message) ]

(** Absint facts of one candidate, shared by the JSON and text paths. *)
let candidate_facts (c : Repolib.Candidate.t) =
  let facts = Repolib.Analyzer.absint_facts c in
  let summary =
    Option.map
      (fun s -> Absint.Domain.tree_size s)
      facts.Absint.Domain.summary
  in
  ( c.Repolib.Candidate.func_name,
    c.Repolib.Candidate.file,
    facts.Absint.Domain.pure,
    Absint.Domain.bound_to_string facts.Absint.Domain.bound,
    summary )

let json_of_candidate_facts c : Model.Jsonx.t =
  let func, file, pure, bound, summary = candidate_facts c in
  Model.Jsonx.Obj
    [ ("func", Model.Jsonx.Str func);
      ("file", Model.Jsonx.Str file);
      ("pure", Model.Jsonx.Bool pure);
      ("step_bound", Model.Jsonx.Str bound);
      ("summary",
       (match summary with
        | Some nodes ->
          Model.Jsonx.Obj [ ("tree_nodes", Model.Jsonx.Int nodes) ]
        | None -> Model.Jsonx.Null)) ]

let lint_cmd =
  let run repo_name query strict json verbose =
    let repos =
      match (repo_name, query) with
      | Some name, _ ->
        (match
           List.find_opt
             (fun (r : Repolib.Repo.t) -> r.Repolib.Repo.repo_name = name)
             Corpus.all_repos
         with
         | Some r -> Ok [ r ]
         | None -> Error (Printf.sprintf "no corpus repository named %S" name))
      | None, Some q ->
        Ok (Repolib.Search.search (Corpus.search_index ()) ~k:40 q)
      | None, None -> Ok Corpus.all_repos
    in
    match repos with
    | Error e -> prerr_endline e; 1
    | Ok repos ->
      let errors = ref 0 and warnings = ref 0 and dirty = ref 0 in
      let count ds =
        if ds <> [] then incr dirty;
        List.iter
          (fun d ->
            if Staticcheck.Diag.is_error d then incr errors else incr warnings)
          ds
      in
      if json then begin
        let repo_objs =
          List.map
            (fun (r : Repolib.Repo.t) ->
              let ds = Repolib.Analyzer.repo_diagnostics r in
              count ds;
              let fields =
                [ ("repo", Model.Jsonx.Str r.Repolib.Repo.repo_name);
                  ("diagnostics",
                   Model.Jsonx.List (List.map json_of_diag ds)) ]
              in
              let fields =
                if not verbose then fields
                else
                  fields
                  @ [ ("candidates",
                       Model.Jsonx.List
                         (List.map json_of_candidate_facts
                            (Repolib.Analyzer.candidates_of_repo r))) ]
              in
              Model.Jsonx.Obj fields)
            repos
        in
        print_endline
          (Model.Jsonx.to_string
             (Model.Jsonx.Obj
                [ ("repos", Model.Jsonx.List repo_objs);
                  ("repos_linted", Model.Jsonx.Int (List.length repos));
                  ("errors", Model.Jsonx.Int !errors);
                  ("warnings", Model.Jsonx.Int !warnings);
                  ("clean",
                   Model.Jsonx.Int (List.length repos - !dirty)) ]))
      end
      else begin
        List.iter
          (fun (r : Repolib.Repo.t) ->
            let ds = Repolib.Analyzer.repo_diagnostics r in
            count ds;
            let facts =
              if not verbose then []
              else
                List.map candidate_facts
                  (Repolib.Analyzer.candidates_of_repo r)
            in
            if ds <> [] || facts <> [] then begin
              Printf.printf "== %s ==\n" r.Repolib.Repo.repo_name;
              List.iter (fun d -> print_endline (Staticcheck.Diag.to_string d)) ds;
              List.iter
                (fun (func, file, pure, bound, summary) ->
                  Printf.printf "%s:%s pure=%b bound=[%s] summary=%s\n" file
                    func pure bound
                    (match summary with
                     | Some n -> Printf.sprintf "%d-node tree" n
                     | None -> "none"))
                facts
            end)
          repos;
        Printf.printf
          "%d repositories linted: %d errors, %d warnings (%d clean)\n"
          (List.length repos) !errors !warnings
          (List.length repos - !dirty)
      end;
      if strict && !errors > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the static analyzer over corpus MiniScript sources")
    Term.(const run $ lint_repo_arg $ query_arg $ strict_arg
          $ lint_json_arg $ lint_verbose_arg)

(* -------------------------------- types ---------------------------- *)

let types_cmd =
  let run () =
    List.iter
      (fun (t : Semtypes.Registry.t) ->
        Printf.printf "%-18s %-42s %-14s %s%s\n" t.Semtypes.Registry.id
          t.Semtypes.Registry.name t.Semtypes.Registry.domain
          (Semtypes.Registry.coverage_to_string t.Semtypes.Registry.coverage)
          (if t.Semtypes.Registry.popular then "  [popular]" else ""))
      Semtypes.Registry.all_types;
    let covered, no_code, other, complex = Semtypes.Registry.coverage_counts () in
    Printf.printf
      "\n%d types: %d covered, %d no-code, %d other-language, %d complex-invocation\n"
      Semtypes.Registry.count covered no_code other complex;
    0
  in
  Cmd.v (Cmd.info "types" ~doc:"List the 112-type benchmark registry")
    Term.(const run $ const ())

(* ------------------------------ transforms ------------------------- *)

let transforms_cmd =
  let run type_id =
    match type_id with
    | None -> prerr_endline "--type required"; 1
    | Some id ->
      (match Semtypes.Registry.find id with
       | None -> Printf.eprintf "unknown type %s\n" id; 1
       | Some ty ->
         (match Eval.Experiments.transformations_for ty with
          | None -> print_endline "no function found"; 1
          | Some (func, positives, ts) ->
            Printf.printf "from %s\n" func;
            let table = Autotype_core.Transform.to_table positives ts in
            List.iter
              (fun row -> print_endline (String.concat " | " row))
              table;
            0))
  in
  Cmd.v
    (Cmd.info "transforms" ~doc:"Show semantic transformations for a type")
    Term.(const run $ type_arg)

let main_cmd =
  let info =
    Cmd.info "autotype" ~version:"1.0.0"
      ~doc:"Synthesize type-detection logic from open-source code"
  in
  Cmd.group info
    [ synth_cmd; compile_cmd; validate_cmd; detect_cmd; serve_cmd; stats_cmd;
      lint_cmd; types_cmd; transforms_cmd ]

let () = exit (Cmd.eval' main_cmd)
