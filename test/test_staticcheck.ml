(** Tests for lib/staticcheck: the five lint passes on small fixtures
    (asserting exact diagnostic codes and line numbers), the analyzer's
    per-candidate verdicts, lenient per-file parsing, and ranked-output
    parity of the pipeline with pruning on and off. *)

let parse ~file src = Minilang.Parser.parse ~file src

let diags_of ?(file = "fix.py") src =
  Staticcheck.Check.check_programs [ parse ~file src ]

let pp_diags ds =
  String.concat "; " (List.map Staticcheck.Diag.to_string ds)

(* The fixture diagnostic we are looking for, by exact code and line. *)
let assert_has ~code ~line ds =
  if
    not
      (List.exists
         (fun (d : Staticcheck.Diag.t) ->
           d.Staticcheck.Diag.code = code
           && d.Staticcheck.Diag.site.Minilang.Ast.line = line)
         ds)
  then
    Alcotest.failf "expected %s at line %d, got: %s" code line (pp_diags ds)

let assert_codes expected ds =
  Alcotest.(check (list string))
    "diagnostic codes" expected
    (List.map (fun (d : Staticcheck.Diag.t) -> d.Staticcheck.Diag.code) ds)

(* ---------------------------- fixtures ------------------------------ *)

let test_undefined_var () =
  let ds =
    diags_of
      {|def check(s):
    if len(s) > 3:
        return helperx(s)
    return False
|}
  in
  assert_has ~code:"E101" ~line:3 ds;
  assert_codes [ "E101" ] ds

let test_use_before_assign () =
  let ds =
    diags_of
      {|def tally(s):
    for ch in s:
        total = total + 1
    return 0
|}
  in
  assert_has ~code:"E102" ~line:3 ds

let test_arity_error () =
  let ds =
    diags_of
      {|def f(s):
    return len(s, 10)
|}
  in
  assert_has ~code:"E103" ~line:2 ds

let test_dead_branch () =
  let ds =
    diags_of
      {|def f(s):
    if False:
        return 1
    return len(s)
|}
  in
  assert_has ~code:"W401" ~line:2 ds

let test_unreachable_after_return () =
  let ds =
    diags_of
      {|def f(s):
    return len(s)
    s = s + "x"
|}
  in
  assert_has ~code:"W402" ~line:3 ds

let test_input_never_used () =
  let ds =
    diags_of
      {|def log_it(value):
    print(value)
    return True
|}
  in
  assert_has ~code:"W405" ~line:1 ds

let test_infinite_loop () =
  let ds =
    diags_of
      {|def f(s):
    n = len(s)
    while n > 0:
        s = s + "x"
    return n
|}
  in
  assert_has ~code:"W404" ~line:3 ds

let test_shadowed_builtin () =
  let ds =
    diags_of
      {|def f(s):
    len = 3
    return s
|}
  in
  assert_has ~code:"W201" ~line:2 ds

let test_clean_function () =
  let ds =
    diags_of
      {|def valid(s):
    if len(s) == 0:
        return False
    return s.isdigit()
|}
  in
  assert_codes [] ds

let test_guarded_nameerror_is_warning () =
  (* A NameError-catching try around an undefined name downgrades the
     finding to the guarded-variant warning. *)
  let ds =
    diags_of
      {|def f(s):
    try:
        return mystery(s)
    except NameError:
        return False
|}
  in
  assert_has ~code:"W101" ~line:3 ds;
  if List.exists Staticcheck.Diag.is_error ds then
    Alcotest.failf "guarded use must not be an error: %s" (pp_diags ds)

(* ----------------------------- verdicts ----------------------------- *)

let repo_of src =
  Repolib.Repo.make "test/staticcheck-fixture" "fixture"
    [ { Repolib.Repo.path = "fix.py"; source = src } ]

let candidate_named repo name =
  match
    List.find_opt
      (fun (c : Repolib.Candidate.t) ->
        c.Repolib.Candidate.func_name = name)
      (Repolib.Analyzer.candidates_of_repo repo)
  with
  | Some c -> c
  | None -> Alcotest.failf "candidate %s not extracted" name

let test_verdict_unrankable () =
  let repo =
    repo_of
      {|def sink(value):
    print(value)
    return True

def probe(value):
    return len(value) > 3
|}
  in
  let v = Repolib.Analyzer.verdict (candidate_named repo "sink") in
  Alcotest.(check bool) "sink is unrankable" false
    v.Repolib.Analyzer.rankable;
  let v = Repolib.Analyzer.verdict (candidate_named repo "probe") in
  Alcotest.(check bool) "probe is rankable" true v.Repolib.Analyzer.rankable

let test_verdict_split_call_always_rankable () =
  (* The driver raises ValueError on a component-count mismatch before
     the function runs, so even an input-ignoring two-parameter function
     stays rankable under Split_call. *)
  let repo =
    repo_of
      {|def pair_sink(a, b):
    print(a)
    print(b)
    return True
|}
  in
  let cs =
    List.filter
      (fun (c : Repolib.Candidate.t) ->
        match c.Repolib.Candidate.invocation with
        | Repolib.Candidate.Split_call _ -> true
        | _ -> false)
      (Repolib.Analyzer.candidates_of_repo repo)
  in
  Alcotest.(check bool) "split candidates extracted" true (cs <> []);
  List.iter
    (fun c ->
      let v = Repolib.Analyzer.verdict c in
      Alcotest.(check bool) "split_call rankable" true
        v.Repolib.Analyzer.rankable)
    cs

let test_budget_hint_spin_loop () =
  let repo =
    repo_of
      {|def spin(s):
    n = 0
    while True:
        pass
    return n

def bounded(s):
    n = len(s)
    while n > 0:
        n = n - 1
    return n
|}
  in
  let v = Repolib.Analyzer.verdict (candidate_named repo "spin") in
  (match v.Repolib.Analyzer.budget_hint with
   | Some b ->
     Alcotest.(check int) "spin budget" Staticcheck.Loops.spin_budget b
   | None -> Alcotest.fail "spin loop should get a budget hint");
  let v = Repolib.Analyzer.verdict (candidate_named repo "bounded") in
  Alcotest.(check bool) "bounded loop has no hint" true
    (v.Repolib.Analyzer.budget_hint = None);
  (* The hinted config really shrinks max_steps, the run still ends in
     Hit_limit, and the feature set is identical to the full-budget run
     (the loop head's repeated branch event dedupes into one literal). *)
  let c = candidate_named repo "spin" in
  let config = Repolib.Driver.config_for c in
  (* The effective budget is the min of the loop pass's spin hint and
     the abstract interpreter's (usually tighter) spin-prefix cost —
     see test_absint's conflict regression for the exact min law. *)
  Alcotest.(check bool) "config_for caps at the spin hint" true
    (config.Minilang.Interp.max_steps <= Staticcheck.Loops.spin_budget);
  Alcotest.(check bool) "config_for really shrinks the budget" true
    (config.Minilang.Interp.max_steps
     < Repolib.Driver.default_config.Minilang.Interp.max_steps);
  let hinted = Repolib.Driver.run_safe ~config c "abc" in
  (match hinted.Minilang.Interp.outcome with
   | Minilang.Interp.Hit_limit _ -> ()
   | _ -> Alcotest.fail "spin run should hit the step limit");
  let full = Repolib.Driver.run_safe c "abc" in
  Alcotest.(check bool) "hinted run really uses fewer steps" true
    (hinted.Minilang.Interp.steps_used < full.Minilang.Interp.steps_used);
  let feats r =
    Autotype_core.Feature.Literal_set.elements
      (Autotype_core.Feature.featurize r.Minilang.Interp.trace)
  in
  Alcotest.(check int) "same feature count either way"
    (List.length (feats full))
    (List.length (feats hinted));
  Alcotest.(check (list string)) "same features either way"
    (List.map Autotype_core.Feature.literal_to_string (feats full))
    (List.map Autotype_core.Feature.literal_to_string (feats hinted))

(* ----------------------- lenient repo parsing ----------------------- *)

let test_analyzer_skips_unparseable_file () =
  let repo =
    Repolib.Repo.make "test/partial-parse" "fixture"
      [
        { Repolib.Repo.path = "good.py";
          source = "def ok(s):\n    return len(s) > 0\n" };
        { Repolib.Repo.path = "bad.py"; source = "def broken(:\n" };
      ]
  in
  let progs, skipped = Repolib.Repo.parse_each repo in
  Alcotest.(check int) "one file parses" 1 (List.length progs);
  Alcotest.(check int) "one file skipped" 1 (List.length skipped);
  let cs = Repolib.Analyzer.candidates_of_repo repo in
  Alcotest.(check bool) "candidates from the good file survive" true
    (List.exists
       (fun (c : Repolib.Candidate.t) ->
         c.Repolib.Candidate.func_name = "ok")
       cs);
  (* The skipped file surfaces as an E100 in the repo's lint report. *)
  let ds = Repolib.Analyzer.repo_diagnostics repo in
  assert_has ~code:"E100" ~line:1 ds;
  (* And the lenient driver can still execute the surviving candidate. *)
  let r = Repolib.Driver.run_safe (candidate_named repo "ok") "xyz" in
  match r.Minilang.Interp.outcome with
  | Minilang.Interp.Finished (Minilang.Value.Vbool true) -> ()
  | _ -> Alcotest.fail "candidate from partially-parsed repo should run"

(* ------------------------ pipeline parity --------------------------- *)

let test_pipeline_pruning_parity () =
  (* With pruning on, the ranked output must be identical to pruning
     off: pruned candidates trace identically on every input, so they
     can never rank (DESIGN.md §8).  Over the pipeline bench's types,
     pruning must also save interpreter runs. *)
  let type_ids = [ "credit-card"; "ipv4"; "email"; "isbn" ] in
  let ranked staticcheck id =
    let ty = Semtypes.Registry.find_exn id in
    let positives = Semtypes.Registry.positive_examples ~n:20 ~seed:11 ty in
    let config = { Autotype_core.Pipeline.default_config with staticcheck } in
    let o =
      Autotype_core.Pipeline.synthesize ~config
        ~index:(Corpus.search_index ())
        ~query:ty.Semtypes.Registry.name ~positives ()
    in
    ( id,
      List.map
        (fun (r : Autotype_core.Ranking.ranked) ->
          ( Repolib.Candidate.describe
              r.Autotype_core.Ranking.traced.Autotype_core.Ranking.candidate,
            Autotype_core.Dnf.to_string r.Autotype_core.Ranking.dnf ))
        o.Autotype_core.Pipeline.ranked )
  in
  let run staticcheck =
    Telemetry.reset ();
    Telemetry.enable ();
    let outputs = List.map (ranked staticcheck) type_ids in
    Telemetry.disable ();
    (outputs, Telemetry.find_counter (Telemetry.snapshot ()) "interp.runs")
  in
  let with_static, runs_static = run true in
  let without_static, runs_nostatic = run false in
  Alcotest.(check (list (pair string (list (pair string string)))))
    "ranked output identical with and without static pruning"
    without_static with_static;
  Alcotest.(check bool)
    (Printf.sprintf "pruning saves interpreter runs (%d with, %d without)"
       runs_static runs_nostatic)
    true
    (runs_static < runs_nostatic)

let suite =
  [
    Alcotest.test_case "E101 undefined variable" `Quick test_undefined_var;
    Alcotest.test_case "E102 use before assign" `Quick test_use_before_assign;
    Alcotest.test_case "E103 builtin arity" `Quick test_arity_error;
    Alcotest.test_case "W401 dead branch" `Quick test_dead_branch;
    Alcotest.test_case "W402 unreachable code" `Quick
      test_unreachable_after_return;
    Alcotest.test_case "W405 input never used" `Quick test_input_never_used;
    Alcotest.test_case "W404 infinite loop" `Quick test_infinite_loop;
    Alcotest.test_case "W201 shadowed builtin" `Quick test_shadowed_builtin;
    Alcotest.test_case "clean function" `Quick test_clean_function;
    Alcotest.test_case "guarded NameError is warning" `Quick
      test_guarded_nameerror_is_warning;
    Alcotest.test_case "verdict: input-flow pruning" `Quick
      test_verdict_unrankable;
    Alcotest.test_case "verdict: split_call never pruned" `Quick
      test_verdict_split_call_always_rankable;
    Alcotest.test_case "verdict: spin-loop budget hint" `Quick
      test_budget_hint_spin_loop;
    Alcotest.test_case "analyzer skips unparseable files" `Quick
      test_analyzer_skips_unparseable_file;
    Alcotest.test_case "pipeline pruning parity" `Slow
      test_pipeline_pruning_parity;
  ]
