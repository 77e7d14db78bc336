(** Tests for the web-table substrate: Potter's-Wheel regex inference,
    corpus generation and column detection. *)

module R = Tablecorpus.Regex_infer

let test_infer_homogeneous () =
  match R.infer [ "123-45-6789"; "987-65-4321"; "555-12-0000" ] with
  | None -> Alcotest.fail "homogeneous examples must infer"
  | Some p ->
    Alcotest.(check bool) "matches same shape" true (R.matches p "111-22-3333");
    Alcotest.(check bool) "rejects other shape" false (R.matches p "11-222-3333");
    Alcotest.(check bool) "rejects letters" false (R.matches p "abc-de-fghi")

let test_infer_length_ranges () =
  match R.infer [ "ab12"; "abcd1"; "a123" ] with
  | None -> Alcotest.fail "must unify letter/digit runs"
  | Some p ->
    Alcotest.(check bool) "in range" true (R.matches p "xyz99");
    Alcotest.(check bool) "letters too long" false (R.matches p "abcde123")

let test_infer_heterogeneous_fails () =
  (* Mixed formats defeat regex inference (Section 9.2): more distinct
     shapes than the disjunct budget. *)
  let mixed =
    [ "2017-01-31"; "Jan 01, 2017"; "01/31/2017"; "31.01.2017";
      "2017 Jan 31"; "20170131T00" ]
  in
  (match R.infer mixed with
   | None -> ()
   | Some p ->
     (* If it infers, the pattern must at least be a disjunction and not
        match everything. *)
     Alcotest.(check bool) "does not match arbitrary text" false
       (R.matches p "hello world 42"))

let test_regex_fails_on_unseen_variant () =
  (* The paper's ISBN example: trained on compact digits, a regex cannot
     recognize the hyphenated variant, while reused code can. *)
  let rng = Semtypes.Generators.make_rng 5 in
  let compact = List.init 20 (fun _ -> Semtypes.Generators.isbn13 rng) in
  match R.infer compact with
  | None -> Alcotest.fail "compact ISBNs are homogeneous"
  | Some p ->
    Alcotest.(check bool) "accepts compact" true
      (R.matches p (Semtypes.Generators.isbn13 rng));
    Alcotest.(check bool) "rejects hyphenated" false
      (R.matches p (Semtypes.Generators.isbn13_hyphenated rng))

let test_corpus_generation () =
  let config =
    { Tablecorpus.Webtables.default_config with n_columns = 500 }
  in
  let columns = Tablecorpus.Webtables.generate ~config () in
  Alcotest.(check int) "column count" 500 (List.length columns);
  let typed =
    List.filter
      (fun c -> c.Tablecorpus.Webtables.truth <> None)
      columns
  in
  Alcotest.(check bool) "typed columns exist" true (List.length typed > 50);
  (* datetime dominates, per Table 2's proportions. *)
  let count ty =
    List.length
      (List.filter (fun c -> c.Tablecorpus.Webtables.truth = Some ty) columns)
  in
  Alcotest.(check bool) "datetime most frequent" true
    (count "datetime" > count "address");
  (* None of the 5 absent popular types occur. *)
  List.iter
    (fun ty ->
      Alcotest.(check int) (ty ^ " absent") 0 (count ty))
    Tablecorpus.Webtables.absent_popular_types;
  (* Determinism. *)
  let columns2 = Tablecorpus.Webtables.generate ~config () in
  Alcotest.(check bool) "generation deterministic" true (columns = columns2)

let test_detection_threshold_single_source () =
  (* Satellite of the compile/serve split: the 0.8 column threshold is
     defined once, in the synthesis layer, and re-exported here — the
     two must never drift apart. *)
  Alcotest.(check (float 0.0)) "threshold pinned to synthesis layer"
    Autotype_core.Synthesis.default_detection_threshold
    Tablecorpus.Detect.detection_threshold;
  Alcotest.(check (float 0.0)) "value is the paper's 0.8" 0.8
    Tablecorpus.Detect.detection_threshold

let test_column_verdict () =
  (* The Section 9.1 rule, applied in one place: more than 0.8 of all
     values (empties included) must be VALID; any skipped value makes
     the column degraded.  Every decision counts one scanned column,
     whoever made it. *)
  let open Tablecorpus.Detect in
  Telemetry.enable ();
  let frac = function
    | Column_match f | Column_no_match f -> f
    | Column_degraded _ -> Alcotest.fail "unexpected degradation"
  in
  let v = column_verdict [ V_valid; V_valid; V_valid; V_valid; V_invalid ] in
  Alcotest.(check bool) "4/5 is at, not above, the threshold" true
    (match v with Column_no_match _ -> true | _ -> false);
  Alcotest.(check (float 0.0)) "fraction is accepted / total" 0.8 (frac v);
  let v = column_verdict [ V_valid; V_valid ] in
  Alcotest.(check bool) "clean column matches" true
    (match v with Column_match _ -> true | _ -> false);
  Alcotest.(check (float 0.0)) "empty column" 0.0 (frac (column_verdict []));
  Alcotest.(check (float 0.0)) "a deadline counts as not accepted" 0.5
    (frac (column_verdict [ V_valid; V_deadline ]));
  (match column_verdict [ V_valid; V_deadline; V_skipped; V_skipped ] with
   | Column_degraded { seen; accepted; total } ->
     Alcotest.(check (list int)) "seen, accepted, total" [ 2; 1; 4 ]
       [ seen; accepted; total ]
   | _ -> Alcotest.fail "a skipped value must degrade the column");
  let column values =
    { Tablecorpus.Webtables.header = None; values; truth = None; note = "" }
  in
  let det = { type_id = "x"; accepts = (fun v -> v = "a"); usable = true } in
  let detected =
    detect_with_values det [ column [ "a"; "a" ]; column [ "a"; "b" ] ]
  in
  Telemetry.disable ();
  let snap = Telemetry.snapshot () in
  Telemetry.reset ();
  Alcotest.(check int) "the sweep decides through the same rule" 1
    (List.length detected);
  Alcotest.(check int) "one scanned column per decision" 7
    (Telemetry.find_counter snap "detect.columns_scanned");
  Alcotest.(check int) "one detected column per match" 2
    (Telemetry.find_counter snap "detect.columns_detected")

let test_header_matching () =
  Alcotest.(check bool) "direct" true
    (Tablecorpus.Detect.header_matches "email" (Some "Email"));
  Alcotest.(check bool) "substring" true
    (Tablecorpus.Detect.header_matches "email" (Some "contact e-mail"));
  Alcotest.(check bool) "missing header" false
    (Tablecorpus.Detect.header_matches "email" None);
  Alcotest.(check bool) "unrelated" false
    (Tablecorpus.Detect.header_matches "email" (Some "price"))

let test_detection_small_corpus () =
  (* End-to-end detection on a small corpus: DNF-S finds ISBN columns
     with high precision; the version-number trap is not detected as
     IPv4 by value... (it is ambiguous, Section 9.2) — but the range
     trap must never be detected as ISBN. *)
  let config =
    { Tablecorpus.Webtables.default_config with n_columns = 400 }
  in
  let columns = Tablecorpus.Webtables.generate ~config () in
  let ty = Semtypes.Registry.find_exn "isbn" in
  let det = Tablecorpus.Detect.dnf_detector ty in
  Alcotest.(check bool) "isbn detector usable" true
    det.Tablecorpus.Detect.usable;
  let detected = Tablecorpus.Detect.detect_with_values det columns in
  let prf = Tablecorpus.Detect.score "isbn" ~detected ~columns in
  Alcotest.(check bool) "finds isbn columns" true (prf.Eval.Metrics.tp > 0);
  List.iter
    (fun (c : Tablecorpus.Webtables.column) ->
      if c.Tablecorpus.Webtables.note = "range-looks-like-date" then
        Alcotest.fail "range column detected as ISBN")
    detected

(* -------------------- deadline-aware serving ----------------------- *)

(* Compiling runs the whole pipeline; do it once for every serve test. *)
let ipv4_compiled =
  lazy
    (let ty = Semtypes.Registry.find_exn "ipv4" in
     let positives = Semtypes.Registry.positive_examples ~n:20 ~seed:11 ty in
     Autotype_core.Pipeline.compile ~index:(Corpus.search_index ())
       ~query:ty.Semtypes.Registry.name ~positives ())

let ipv4_synthesis () =
  match
    Autotype_core.Pipeline.best
      (Lazy.force ipv4_compiled).Autotype_core.Pipeline.c_outcome
  with
  | Some syn -> syn
  | None -> Alcotest.fail "no ipv4 synthesis"

let test_serve_column_budgets () =
  let syn = ipv4_synthesis () in
  let ty = Semtypes.Registry.find_exn "ipv4" in
  let good = Semtypes.Registry.positive_examples ~n:4 ~seed:123 ty in
  let values = good @ [ "not an ip" ] in
  Telemetry.enable ();
  Telemetry.reset ();
  (* Unbudgeted serving is the historical verdict. *)
  (match Tablecorpus.Detect.serve_column syn values with
   | Tablecorpus.Detect.Column_no_match frac ->
     Alcotest.(check (float 1e-9)) "4/5 accepted, at (not above) 0.8" 0.8 frac
   | Tablecorpus.Detect.Column_match _ ->
     Alcotest.fail "4/5 is not above the 0.8 threshold"
   | Tablecorpus.Detect.Column_degraded _ ->
     Alcotest.fail "unbudgeted serving never degrades");
  (match Tablecorpus.Detect.serve_column syn good with
   | Tablecorpus.Detect.Column_match frac ->
     Alcotest.(check (float 1e-9)) "clean column matches" 1.0 frac
   | _ -> Alcotest.fail "clean column must match");
  (* Zero per-value budget: every value deadlines and counts as
     not-accepted; the column still gets a (negative) verdict. *)
  let b = Tablecorpus.Detect.budgets ~value_budget_ms:0.0 () in
  (match Tablecorpus.Detect.serve_column ~budgets:b syn values with
   | Tablecorpus.Detect.Column_no_match frac ->
     Alcotest.(check (float 0.0)) "nothing accepted" 0.0 frac
   | _ -> Alcotest.fail "zero value budget must yield no-match");
  (* Expired batch deadline: the column degrades to an unknown verdict
     with its partial tally — never an exception. *)
  let b = Tablecorpus.Detect.budgets ~deadline_ms:0.0 () in
  (match Tablecorpus.Detect.serve_column ~budgets:b syn values with
   | Tablecorpus.Detect.Column_degraded { seen; accepted; total } ->
     Alcotest.(check int) "nothing seen" 0 seen;
     Alcotest.(check int) "nothing accepted" 0 accepted;
     Alcotest.(check int) "total preserved" (List.length values) total
   | _ -> Alcotest.fail "expired batch deadline must degrade");
  Telemetry.disable ();
  let snap = Telemetry.snapshot () in
  Alcotest.(check int) "per-value deadline hits counted"
    (List.length values)
    (Telemetry.find_counter snap "serve.deadline_hits");
  Alcotest.(check bool) "degradations counted" true
    (Telemetry.find_counter snap "serve.degraded" >= 1)

(* ----------------- request-scoped observability -------------------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let test_serve_trace_attribution () =
  (* Acceptance: every span, counter attribution and flight event
     emitted while serve_column runs under a request context carries
     that context's (non-zero) trace id — at jobs=1 and jobs=4. *)
  let syn = ipv4_synthesis () in
  let ty = Semtypes.Registry.find_exn "ipv4" in
  let columns =
    List.init 8 (fun i ->
        Semtypes.Registry.positive_examples ~n:3 ~seed:(100 + i) ty)
  in
  let run jobs =
    Telemetry.enable ();
    let ctx = Telemetry.Context.root () in
    Alcotest.(check bool) "request trace id is non-zero" true
      (ctx.Telemetry.Context.trace_id <> 0L);
    Exec.Pool.with_pool ~jobs (fun pool ->
        Telemetry.Context.with_context ctx (fun () ->
            ignore
              (Exec.Pool.parallel_map pool
                 (fun values -> Tablecorpus.Detect.serve_column syn values)
                 columns)));
    Telemetry.disable ();
    let spans = Telemetry.spans_named "serve.column" in
    Alcotest.(check int)
      (Printf.sprintf "jobs=%d: one span per served column" jobs)
      (List.length columns) (List.length spans);
    List.iter
      (fun (s : Telemetry.span) ->
        Alcotest.(check bool)
          (Printf.sprintf "jobs=%d: span carries the request trace id" jobs)
          true
          (s.Telemetry.sp_trace_id = ctx.Telemetry.Context.trace_id))
      spans;
    let evs = Telemetry.Flight.events () in
    Alcotest.(check bool)
      (Printf.sprintf "jobs=%d: flight events were recorded" jobs)
      true (evs <> []);
    Alcotest.(check bool)
      (Printf.sprintf "jobs=%d: a span flight event exists" jobs)
      true
      (List.exists
         (fun (e : Telemetry.Flight.event) ->
           e.Telemetry.Flight.f_kind = "span"
           && e.Telemetry.Flight.f_label = "serve.column")
         evs);
    List.iter
      (fun (e : Telemetry.Flight.event) ->
        Alcotest.(check bool)
          (Printf.sprintf
             "jobs=%d: flight event %s/%s carries the request trace id" jobs
             e.Telemetry.Flight.f_kind e.Telemetry.Flight.f_label)
          true
          (e.Telemetry.Flight.f_trace_id = ctx.Telemetry.Context.trace_id))
      evs;
    Telemetry.reset ()
  in
  run 1;
  run 4

let test_degraded_flight_dump () =
  (* Acceptance: under injected delay, a degraded column triggers a
     flight-recorder dump whose JSONL events carry the request's trace
     id. *)
  let syn = ipv4_synthesis () in
  let ty = Semtypes.Registry.find_exn "ipv4" in
  let values = Semtypes.Registry.positive_examples ~n:5 ~seed:7 ty in
  let path = Filename.temp_file "autotype-flight-dump" ".jsonl" in
  let saved_dump = Telemetry.Flight.dump_path () in
  Fun.protect
    ~finally:(fun () ->
      Faults.set None;
      Telemetry.Flight.set_dump_path saved_dump;
      if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  Telemetry.Flight.set_dump_path (Some path);
  (* A 3ms injected delay per run against a 1ms batch budget: the first
     value burns the deadline, the second degrades the column. *)
  Faults.set
    (Some { Faults.default with Faults.delay_ms = 3.0; seed = 1 });
  Telemetry.enable ();
  let ctx = Telemetry.Context.root () in
  let verdict =
    Telemetry.Context.with_context ctx (fun () ->
        let b = Tablecorpus.Detect.budgets ~deadline_ms:1.0 () in
        Tablecorpus.Detect.serve_column ~budgets:b syn values)
  in
  Telemetry.disable ();
  (match verdict with
   | Tablecorpus.Detect.Column_degraded { seen; total; _ } ->
     Alcotest.(check bool) "partial progress preserved" true (seen < total)
   | _ -> Alcotest.fail "expected degradation under injected delay");
  Alcotest.(check bool) "trigger dumped the flight ring" true
    (Sys.file_exists path);
  let lines = read_lines path in
  Alcotest.(check bool) "dump is non-empty" true (lines <> []);
  List.iter
    (fun l ->
      Alcotest.(check bool) "dump line is a JSON object" true
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  let hex = Telemetry.Context.trace_id_hex ctx in
  Alcotest.(check bool) "degraded event carries the request trace id" true
    (List.exists
       (fun l ->
         contains ~needle:"\"kind\":\"degraded\"" l && contains ~needle:hex l)
       lines);
  Alcotest.(check bool) "deadline events carry the request trace id" true
    (List.exists
       (fun l ->
         contains ~needle:"\"kind\":\"deadline\"" l && contains ~needle:hex l)
       lines);
  Alcotest.(check bool) "dump trigger recorded its reason" true
    (List.exists (fun l -> contains ~needle:"\"kind\":\"dump\"" l) lines);
  Telemetry.reset ()

let suite =
  [
    ("regex inference: homogeneous", `Quick, test_infer_homogeneous);
    ("regex inference: length ranges", `Quick, test_infer_length_ranges);
    ("regex inference: heterogeneous", `Quick, test_infer_heterogeneous_fails);
    ("regex fails on unseen variant", `Quick, test_regex_fails_on_unseen_variant);
    ("webtable generation", `Quick, test_corpus_generation);
    ("detection threshold single-sourced", `Quick,
     test_detection_threshold_single_source);
    ("column_verdict: the one column rule", `Quick, test_column_verdict);
    ("header matching", `Quick, test_header_matching);
    ("detection end-to-end", `Slow, test_detection_small_corpus);
    ("serve_column budgets and degradation", `Slow, test_serve_column_budgets);
    ("serve_column trace attribution (jobs=1 and 4)", `Slow,
     test_serve_trace_attribution);
    ("degraded column triggers flight dump", `Slow,
     test_degraded_flight_dump);
  ]
