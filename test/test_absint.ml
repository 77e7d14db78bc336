(** Tests for lib/absint: the proved facts (purity, step bounds,
    symbolic summaries) on fixture candidates, none for a [def] that
    module load never reaches, exact parity of compiled summaries with
    the concrete interpreter on truthiness edge cases, the min-law of
    [Driver.config_for] when the spin hint and the absint bound
    disagree, the compiled summary that an artifact derives again when
    it is decoded, rejection of the previous artifact version, and the
    serving fast path with its oversize-value fallback. *)

let repo_of src =
  Repolib.Repo.make "test/absint-fixture" "fixture"
    [ { Repolib.Repo.path = "fix.py"; source = src } ]

let candidate_named repo name =
  match
    List.find_opt
      (fun (c : Repolib.Candidate.t) ->
        c.Repolib.Candidate.func_name = name
        && c.Repolib.Candidate.invocation = Repolib.Candidate.Direct)
      (Repolib.Analyzer.candidates_of_repo repo)
  with
  | Some c -> c
  | None -> Alcotest.failf "candidate %s not extracted" name

(* The universal summary check: for every input, the summary tree must
   route to a leaf whose event list is *verbatim* the trace the
   interpreter emits.  This is the must-soundness contract of
   DESIGN.md §13 — not "equivalent", identical. *)
let assert_summary_parity c inputs =
  let facts = Repolib.Analyzer.absint_facts c in
  let summary =
    match facts.Absint.Domain.summary with
    | Some t -> t
    | None ->
      Alcotest.failf "%s: expected a summary"
        c.Repolib.Candidate.func_name
  in
  List.iter
    (fun input ->
      let run = Repolib.Driver.run_safe c input in
      let pe = Absint.Domain.eval_tree summary input in
      let predicted = Absint.Domain.events_of_path pe in
      if predicted <> run.Minilang.Interp.trace then
        Alcotest.failf "%s on %S: summary predicted %d events, interp emitted %d"
          c.Repolib.Candidate.func_name input (List.length predicted)
          (List.length run.Minilang.Interp.trace))
    inputs

let test_regex_detector_facts () =
  let repo =
    repo_of
      {|def check(value):
    value = value.strip()
    value = value.lower()
    if re.match("[0-9]+", value):
        return True
    return False
|}
  in
  let c = candidate_named repo "check" in
  let facts = Repolib.Analyzer.absint_facts c in
  Alcotest.(check bool) "proven pure" true facts.Absint.Domain.pure;
  (match facts.Absint.Domain.bound with
   | Absint.Domain.Terminates { a; b } ->
     Alcotest.(check bool) "constant-ish bound" true (a >= 0 && b > 0)
   | other ->
     Alcotest.failf "expected Terminates, got %s"
       (Absint.Domain.bound_to_string other));
  assert_summary_parity c
    [ "12345"; "  42  "; "abc"; ""; " "; "12a"; "0"; String.make 300 '7' ]

let test_truthiness_edges () =
  (* re.match returning an *empty* prefix is a falsy Vstr "" in the
     interpreter; the compiled guard must agree.  Same for an empty
     fullmatch, the always-true empty-needle [in], and endswith on a
     shorter string. *)
  let repo =
    repo_of
      {|def empty_prefix(value):
    if re.match("x*", value):
        return True
    return False

def empty_full(value):
    if re.fullmatch("x*", value):
        return True
    return False

def needle(value):
    if "" in value:
        return len(value) > 2
    return False

def ends(value):
    value = value.rstrip()
    if value.endswith("xyz"):
        return True
    return False
|}
  in
  let inputs = [ ""; "x"; "xx"; "abc"; "xyz"; "wxyz  "; "y"; "xxxy" ] in
  List.iter
    (fun name -> assert_summary_parity (candidate_named repo name) inputs)
    [ "empty_prefix"; "empty_full"; "needle"; "ends" ]

let test_unknown_constructs_yield_unknown () =
  (* A candidate using a construct outside the proved fragment must get
     unknown facts, never a wrong one. *)
  let repo =
    repo_of
      {|def chatty(value):
    print(value)
    return True

def looper(value):
    total = 0
    for ch in value:
        total = total + ord(ch)
    return total % 7 == 0
|}
  in
  let facts = Repolib.Analyzer.absint_facts (candidate_named repo "chatty") in
  Alcotest.(check bool) "print is not pure" false facts.Absint.Domain.pure;
  let facts = Repolib.Analyzer.absint_facts (candidate_named repo "looper") in
  Alcotest.(check bool) "data loop has no summary" true
    (facts.Absint.Domain.summary = None)

(* Module load stops at the NameError of [importre], so [check] is
   never defined and every run fails.  The proofs must not describe a
   function the run cannot call: a summary here would let a served
   tree answer where the interpreter cannot. *)
let test_unreached_def_has_no_facts () =
  let repo =
    repo_of
      {|importre
def check(value):
    if re.match("[0-9]+", value):
        return True
    return False
|}
  in
  let c = candidate_named repo "check" in
  (match (Repolib.Driver.run_safe c "123").Minilang.Interp.outcome with
   | Minilang.Interp.Finished _ ->
     Alcotest.fail "a def after a failing statement must not run"
   | _ -> ());
  let facts = Repolib.Analyzer.absint_facts c in
  Alcotest.(check bool) "not proven pure" false facts.Absint.Domain.pure;
  Alcotest.(check bool) "no step bound" true
    (facts.Absint.Domain.bound = Absint.Domain.Bound_unknown);
  Alcotest.(check bool) "no summary" true (facts.Absint.Domain.summary = None)

(* When the loop pass's spin hint and the absint bound disagree, the
   effective budget is their minimum. *)
let test_config_for_min_of_hints () =
  let repo =
    repo_of
      {|def spin(s):
    n = 0
    while True:
        pass
    return n
|}
  in
  let c = candidate_named repo "spin" in
  let facts = Repolib.Analyzer.absint_facts c in
  let absint_cost =
    match facts.Absint.Domain.bound with
    | Absint.Domain.Spins_after k -> k
    | other ->
      Alcotest.failf "expected Spins_after, got %s"
        (Absint.Domain.bound_to_string other)
  in
  (* The fixture is the conflicting case: the absint spin cost is far
     below the loop pass's blanket spin budget. *)
  Alcotest.(check bool) "hints really conflict" true
    (absint_cost < Staticcheck.Loops.spin_budget);
  let config = Repolib.Driver.config_for c in
  Alcotest.(check int) "effective budget is the min of the hints"
    (min absint_cost Staticcheck.Loops.spin_budget)
    config.Minilang.Interp.max_steps;
  (* Sound: the tiny budget still hits the limit, and the featurized
     literal set matches the full-budget run (the spin's repeated
     branch dedupes into one literal). *)
  let hinted = Repolib.Driver.run_safe ~config c "abc" in
  (match hinted.Minilang.Interp.outcome with
   | Minilang.Interp.Hit_limit _ -> ()
   | _ -> Alcotest.fail "spin run should hit the step limit");
  let full = Repolib.Driver.run_safe c "abc" in
  let feats r =
    Autotype_core.Feature.Literal_set.elements
      (Autotype_core.Feature.featurize r.Minilang.Interp.trace)
  in
  Alcotest.(check (list string)) "feature set unchanged under the min budget"
    (List.map Autotype_core.Feature.literal_to_string (feats full))
    (List.map Autotype_core.Feature.literal_to_string (feats hinted))

let test_terminating_bound_instantiates_with_len () =
  let repo =
    repo_of
      {|def flat(value):
    value = value.strip()
    if value.isdigit():
        return True
    return False
|}
  in
  let c = candidate_named repo "flat" in
  let facts = Repolib.Analyzer.absint_facts c in
  match facts.Absint.Domain.bound with
  | Absint.Domain.Terminates { a; b } ->
    let len = 12 in
    let config = Repolib.Driver.config_for ~input_len:len c in
    Alcotest.(check int) "a*len + b budget"
      (min ((a * len) + b)
         Repolib.Driver.default_config.Minilang.Interp.max_steps)
      config.Minilang.Interp.max_steps;
    (* And the bound is honest: a real run fits inside it. *)
    let run = Repolib.Driver.run_safe ~config c (String.make len '5') in
    (match run.Minilang.Interp.outcome with
     | Minilang.Interp.Finished _ -> ()
     | _ -> Alcotest.fail "terminating candidate must finish in budget")
  | other ->
    Alcotest.failf "expected Terminates, got %s"
      (Absint.Domain.bound_to_string other)

(* ------------------------- artifacts ------------------------------- *)

let compiled_ipv4 = lazy (
  let ty = Semtypes.Registry.find_exn "ipv4" in
  let positives = Semtypes.Registry.positive_examples ~n:20 ~seed:11 ty in
  Autotype_core.Pipeline.compile ~index:(Corpus.search_index ())
    ~query:ty.Semtypes.Registry.name ~positives ())

let artifact_ipv4 () =
  match Model.Artifact.of_compiled (Lazy.force compiled_ipv4) with
  | Some a -> Model.Artifact.with_type_id "ipv4" a
  | None -> Alcotest.fail "no function synthesized for ipv4"

let test_artifact_roundtrips_summary () =
  let artifact = artifact_ipv4 () in
  (match artifact.Model.Artifact.summary with
   | None -> Alcotest.fail "ipv4 winner should compile to a summary"
   | Some _ -> ());
  match Model.Artifact.decode (Model.Artifact.encode artifact) with
  | Error e ->
    Alcotest.fail
      ("decode(encode) failed: " ^ Model.Artifact.load_error_to_string e)
  | Ok decoded ->
    Alcotest.(check bool) "summary tree survives the round-trip" true
      (decoded.Model.Artifact.summary = artifact.Model.Artifact.summary)

let test_previous_version_rejected () =
  (* The format-version bump is strict: a header of the previous
     version is rejected with Version_unsupported before the payload is
     touched. *)
  let bytes = Model.Artifact.encode (artifact_ipv4 ()) in
  let v_cur =
    Printf.sprintf "%s v%d " Model.Artifact.magic Model.Artifact.format_version
  in
  let v_old = Printf.sprintf "%s v2 " Model.Artifact.magic in
  if String.length bytes < String.length v_cur
     || String.sub bytes 0 (String.length v_cur) <> v_cur
  then Alcotest.fail "artifact header not in expected form";
  let downgraded =
    v_old
    ^ String.sub bytes (String.length v_cur)
        (String.length bytes - String.length v_cur)
  in
  match Model.Artifact.decode downgraded with
  | Error (Model.Artifact.Version_unsupported { found; supported }) ->
    Alcotest.(check int) "found v2" 2 found;
    Alcotest.(check int) "supports v3" 3 supported
  | Error e ->
    Alcotest.fail
      ("expected version-unsupported, got: "
      ^ Model.Artifact.load_error_to_string e)
  | Ok _ -> Alcotest.fail "a v2 artifact must not load"

(* ------------------------- serving fast path ------------------------ *)

let test_serve_fastpath_and_fallback () =
  let artifact = artifact_ipv4 () in
  let entry = Model.Registry.entry_of_artifact artifact in
  Telemetry.reset ();
  Telemetry.enable ();
  Telemetry.Flight.clear ();
  let det = Tablecorpus.Detect.serve_detector entry in
  Alcotest.(check bool) "accepts an ipv4" true
    (det.Tablecorpus.Detect.accepts "192.168.0.1");
  Alcotest.(check bool) "rejects junk" false
    (det.Tablecorpus.Detect.accepts "not an ip");
  (* An oversize value must fall back to the interpreter — verdict
     unchanged — and leave a flight-recorder event behind. *)
  let oversize =
    "192.168.0.1" ^ String.make (Tablecorpus.Detect.fastpath_max_len + 1) ' '
  in
  let interp_verdict =
    Autotype_core.Synthesis.validate entry.Model.Registry.synthesis oversize
  in
  Alcotest.(check bool) "fallback verdict matches the interpreter"
    interp_verdict
    (det.Tablecorpus.Detect.accepts oversize);
  Telemetry.disable ();
  let snap = Telemetry.snapshot () in
  Alcotest.(check int) "both in-range values took the fast path" 2
    (Telemetry.find_counter snap "serve.fastpath_hits");
  Alcotest.(check int) "the oversize value fell back" 1
    (Telemetry.find_counter snap "serve.fastpath_fallbacks");
  Alcotest.(check bool) "fallback left a flight event" true
    (List.exists
       (fun (e : Telemetry.Flight.event) -> e.Telemetry.Flight.f_kind = "fastpath_fallback")
       (Telemetry.Flight.events ()))

let test_serve_summary_parity_on_workload () =
  (* The compiled route and the interpreter route must agree verdict-
     for-verdict on the full acceptance workload. *)
  let artifact = artifact_ipv4 () in
  let syn = Model.Artifact.to_synthesis artifact in
  let tree =
    match artifact.Model.Artifact.summary with
    | Some t -> t
    | None -> Alcotest.fail "ipv4 winner should compile to a summary"
  in
  let prepared =
    match Absint.Domain.prepare tree with
    | Some p -> p
    | None -> Alcotest.fail "stored regex must prepare"
  in
  let ty = Semtypes.Registry.find_exn "ipv4" in
  let values =
    Semtypes.Registry.positive_examples ~n:30 ~seed:99 ty
    @ Eval.Benchmark.negative_test_pool ~n:100 ~seed:7 ty
    @ [ ""; " "; "0"; "null"; "255.255.255.255"; "256.1.1.1" ]
  in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "route parity on %S" v)
        (Autotype_core.Synthesis.validate syn v)
        (Absint.Domain.eval_prepared prepared v))
    values

let suite =
  [
    Alcotest.test_case "regex detector: pure, bounded, summarized" `Quick
      test_regex_detector_facts;
    Alcotest.test_case "summary parity on truthiness edges" `Quick
      test_truthiness_edges;
    Alcotest.test_case "unknown constructs yield unknown facts" `Quick
      test_unknown_constructs_yield_unknown;
    Alcotest.test_case "a def that module load never reaches" `Quick
      test_unreached_def_has_no_facts;
    Alcotest.test_case "config_for takes the min of conflicting hints" `Quick
      test_config_for_min_of_hints;
    Alcotest.test_case "termination bound instantiates with input_len" `Quick
      test_terminating_bound_instantiates_with_len;
    Alcotest.test_case "v2 artifact round-trips the summary" `Slow
      test_artifact_roundtrips_summary;
    Alcotest.test_case "previous artifact version is rejected" `Slow
      test_previous_version_rejected;
    Alcotest.test_case "serve fast path hits and oversize fallback" `Slow
      test_serve_fastpath_and_fallback;
    Alcotest.test_case "serve route parity on the ipv4 workload" `Slow
      test_serve_summary_parity_on_workload;
  ]
