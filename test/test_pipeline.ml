(** End-to-end tests of the synthesis pipeline (Figure 6): search →
    candidates → negative generation → DNF ranking → synthesized
    validator. *)

let synthesize ?config ?pool type_id =
  let ty = Semtypes.Registry.find_exn type_id in
  let positives = Semtypes.Registry.positive_examples ~n:20 ~seed:11 ty in
  Autotype_core.Pipeline.synthesize ?config ?pool
    ~index:(Corpus.search_index ())
    ~query:ty.Semtypes.Registry.name ~positives ()

let top_is_relevant type_id (o : Autotype_core.Pipeline.outcome) =
  match o.Autotype_core.Pipeline.ranked with
  | [] -> false
  | r :: _ ->
    let c = r.Autotype_core.Ranking.traced.Autotype_core.Ranking.candidate in
    Repolib.Repo.intends c.Repolib.Candidate.repo
      ~func_name:c.Repolib.Candidate.func_name ~type_id

let test_credit_card_end_to_end () =
  let o = synthesize "credit-card" in
  Alcotest.(check bool) "found functions" true (o.ranked <> []);
  Alcotest.(check bool) "top-1 is a credit-card function" true
    (top_is_relevant "credit-card" o);
  (* Checksum types are separated already by S1 mutations (Section 6). *)
  (match o.strategy_used with
   | Some Autotype_core.Negative.S1 -> ()
   | Some s ->
     Alcotest.failf "expected S1 for credit card, got %s"
       (Autotype_core.Negative.strategy_to_string s)
   | None -> Alcotest.fail "no strategy recorded");
  (* The synthesized validator generalizes to held-out data. *)
  match Autotype_core.Pipeline.best o with
  | None -> Alcotest.fail "no synthesized function"
  | Some syn ->
    let ty = Semtypes.Registry.find_exn "credit-card" in
    let held_out = Semtypes.Registry.positive_examples ~n:10 ~seed:99 ty in
    List.iter
      (fun p ->
        if not (Autotype_core.Synthesis.validate syn p) then
          Alcotest.failf "held-out positive %S rejected" p)
      held_out;
    (* Wild negatives are rejected. *)
    let rng = Semtypes.Generators.make_rng 123 in
    let wild = List.init 50 (fun _ -> Semtypes.Generators.wild_cell rng) in
    let accepted =
      List.length (List.filter (Autotype_core.Synthesis.validate syn) wild)
    in
    if accepted > 5 then
      Alcotest.failf "synthesized card validator accepted %d/50 wild cells"
        accepted

let test_ipv6_uses_s2 () =
  (* Example 6: S1 keeps ':' structure and produces positives, so IPv6
     requires escalation to S2 (mutating punctuation). *)
  let o = synthesize "ipv6" in
  match o.strategy_used with
  | Some Autotype_core.Negative.S2 | Some Autotype_core.Negative.S1 ->
    (* S1 can occasionally suffice when hex-digit mutations produce
       group-length violations; S2 is the expected common case. *)
    Alcotest.(check bool) "top is relevant" true (top_is_relevant "ipv6" o)
  | Some s ->
    Alcotest.failf "unexpected strategy %s"
      (Autotype_core.Negative.strategy_to_string s)
  | None -> Alcotest.fail "ipv6: no functions found"

let test_gene_sequence_needs_s3 () =
  (* Types whose alphabet has no punctuation and closed content (FASTA
     bodies, roman numerals) defeat S1/S2: mutations stay in-alphabet. *)
  let ty = Semtypes.Registry.find_exn "roman-numeral" in
  let positives = Semtypes.Registry.positive_examples ~n:20 ~seed:3 ty in
  let alpha = Autotype_core.Negative.infer_alphabet positives in
  (* Roman numerals: the inferred alphabet is a subset of IVXLCDM. *)
  List.iter
    (fun c ->
      if not (String.contains "IVXLCDM" c) then
        Alcotest.failf "unexpected alphabet char %c" c)
    alpha.Autotype_core.Negative.full;
  let o = synthesize "roman-numeral" in
  (match o.strategy_used with
   | Some s ->
     Printf.printf "roman numerals separated at %s\n"
       (Autotype_core.Negative.strategy_to_string s)
   | None -> Alcotest.fail "roman: no functions found");
  Alcotest.(check bool) "top is relevant" true
    (top_is_relevant "roman-numeral" o)

let test_several_popular_types () =
  List.iter
    (fun type_id ->
      let o = synthesize type_id in
      if o.Autotype_core.Pipeline.ranked = [] then
        Alcotest.failf "%s: nothing synthesized" type_id;
      if not (top_is_relevant type_id o) then
        let top =
          match o.ranked with
          | r :: _ ->
            Repolib.Candidate.describe
              r.Autotype_core.Ranking.traced.Autotype_core.Ranking.candidate
          | [] -> "<none>"
        in
        Alcotest.failf "%s: top-1 not relevant (%s)" type_id top)
    [ "isbn"; "ipv4"; "email"; "iban"; "vin" ]

let test_synthesized_handles_format_variants () =
  (* Section 9.2: functions are robust to formatting (hyphenated ISBNs)
     where inferred regexes are not. *)
  let o = synthesize "isbn" in
  match Autotype_core.Pipeline.best o with
  | None -> Alcotest.fail "no ISBN function"
  | Some syn ->
    let rng = Semtypes.Generators.make_rng 7 in
    for _ = 1 to 10 do
      let hyphenated = Semtypes.Generators.isbn13_hyphenated rng in
      if not (Autotype_core.Synthesis.validate syn hyphenated) then
        Alcotest.failf "hyphenated ISBN %S rejected" hyphenated
    done

let test_telemetry_instrumentation () =
  (* A synthesize run under telemetry records every stage span, and the
     counters agree with the outcome record. *)
  Telemetry.enable ();
  let o = synthesize "credit-card" in
  Telemetry.disable ();
  let snap = Telemetry.snapshot () in
  List.iter
    (fun name ->
      if Telemetry.spans_named name = [] then
        Alcotest.failf "no %S span recorded" name)
    [ "pipeline.synthesize"; "pipeline.search"; "pipeline.analyze";
      "pipeline.probe"; "pipeline.attempt"; "pipeline.negatives";
      "pipeline.trace"; "pipeline.rank"; "search.search";
      "ranking.rank_one" ];
  Alcotest.(check int) "exactly one synthesize span" 1
    (List.length (Telemetry.spans_named "pipeline.synthesize"));
  Alcotest.(check int) "pipeline.runs" 1
    (Telemetry.find_counter snap "pipeline.runs");
  Alcotest.(check int) "candidates_kept agrees with outcome" o.candidates_tried
    (Telemetry.find_counter snap "pipeline.candidates_kept");
  Alcotest.(check int) "repos agree with outcome" o.repos_searched
    (Telemetry.find_counter snap "search.repos_returned");
  Alcotest.(check bool) "candidates were traced" true
    (Telemetry.find_counter snap "ranking.candidates_traced" > 0);
  Alcotest.(check bool) "interpreter ran" true
    (Telemetry.find_counter snap "interp.runs" > 0);
  Alcotest.(check bool) "interpreter counted steps" true
    (Telemetry.find_counter snap "interp.steps" > 0);
  (* Stage spans nest under the synthesize root. *)
  let root = List.hd (Telemetry.spans_named "pipeline.synthesize") in
  List.iter
    (fun name ->
      List.iter
        (fun (s : Telemetry.span) ->
          if s.Telemetry.sp_parent <> Some root.Telemetry.sp_id then
            Alcotest.failf "%S span not nested under pipeline.synthesize" name)
        (Telemetry.spans_named name))
    [ "pipeline.search"; "pipeline.analyze"; "pipeline.probe";
      "pipeline.attempt" ];
  Telemetry.reset ()

(* What optimisation must not change about an outcome: the strategy,
   the negative set, and the full ranked list down to exact scores. *)
let outcome_signature (o : Autotype_core.Pipeline.outcome) =
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
  (strategy, o.Autotype_core.Pipeline.negatives, ranked)

let test_parallel_matches_sequential () =
  (* The execution engine's order-preserving pool must leave the
     synthesize outcome byte-identical at any job count. *)
  List.iter
    (fun type_id ->
      let seq = synthesize type_id in
      let par =
        Exec.Pool.with_pool ~jobs:4 (fun pool -> synthesize ~pool type_id)
      in
      let s_strategy, s_negs, s_ranked = outcome_signature seq in
      let p_strategy, p_negs, p_ranked = outcome_signature par in
      Alcotest.(check string)
        (type_id ^ ": strategy") s_strategy p_strategy;
      Alcotest.(check (list string))
        (type_id ^ ": negatives") s_negs p_negs;
      Alcotest.(check (list string))
        (type_id ^ ": ranked list") s_ranked p_ranked)
    [ "credit-card"; "ipv4" ]

let test_positives_traced_once () =
  (* The trace cache must interpret each positive at most once per
     clone class per synthesize call, across every S1→S2→S3 attempt,
     and duplicate negatives must be served from the cache. *)
  Telemetry.reset ();
  Telemetry.enable ();
  let o = synthesize "email" in
  Telemetry.disable ();
  let snap = Telemetry.snapshot () in
  let counter = Telemetry.find_counter snap in
  let attempts = counter "pipeline.strategy_attempts" in
  Alcotest.(check bool) "email escalates past S1" true (attempts >= 2);
  (* Every candidate is its class's representative or a member that
     shares the representative's runs. *)
  Alcotest.(check int) "classes + shared members = candidates"
    o.Autotype_core.Pipeline.candidates_tried
    (counter "ranking.clone_classes" + counter "ranking.clone_members_shared");
  Alcotest.(check bool) "email has clones" true
    (counter "ranking.clone_members_shared" > 0);
  (* Positives run exactly once per class even though [attempts]
     strategy rounds each asked for every member's traces. *)
  Alcotest.(check int) "positive runs = classes * positives"
    (counter "ranking.clone_classes" * 20)
    (counter "ranking.positive_runs");
  Alcotest.(check bool) "cache served repeat traces" true
    (counter "ranking.trace_cache_hits" > 0);
  (* Every interpreter run is accounted for: executability probes plus
     cache misses, minus runs aborted by infrastructure failures (their
     telemetry never flushes). *)
  let expected_runs =
    counter "driver.probes"
    - counter "driver.rejected_unexecutable"
    + counter "ranking.positive_runs"
    + counter "ranking.negative_runs"
    - counter "driver.infra_failures"
  in
  Alcotest.(check int) "interp.runs fully accounted" expected_runs
    (counter "interp.runs");
  Telemetry.reset ()

(* The oracle of clone sharing: on the bench's 4-type workload, every
   member of every clone class, run directly through the driver on the
   positives and the final negatives, gives the trace and step count of
   its class's first member with the sites renamed, file by closure
   position, and the traces the cache handed out are exactly those. *)
let test_clone_classes_match_direct_runs () =
  List.iter
    (fun type_id ->
      let o = synthesize type_id in
      let positives = o.Autotype_core.Pipeline.positives
      and negatives = o.Autotype_core.Pipeline.negatives in
      let input_len =
        List.fold_left (fun n s -> max n (String.length s)) 0
          (positives @ negatives)
      in
      let run c e =
        let config = Repolib.Driver.config_for ~input_len c in
        Repolib.Driver.run_safe ~config c e
      in
      let classes = Hashtbl.create 64 in
      List.iter
        (fun (t : Autotype_core.Ranking.traced) ->
          let key = t.clone.Repolib.Analyzer.class_key in
          Hashtbl.replace classes key
            (t :: Option.value ~default:[] (Hashtbl.find_opt classes key)))
        o.Autotype_core.Pipeline.traceds;
      let shared = ref 0 in
      Hashtbl.iter
        (fun _ members ->
          match List.rev members with
          | [] -> ()
          | (rep : Autotype_core.Ranking.traced) :: _ as members ->
            let rep_runs = List.map (run rep.candidate) (positives @ negatives) in
            List.iter
              (fun (m : Autotype_core.Ranking.traced) ->
                if m != rep then incr shared;
                let map =
                  List.combine rep.clone.Repolib.Analyzer.files
                    m.clone.Repolib.Analyzer.files
                in
                let site (s : Minilang.Trace.site) =
                  match List.assoc_opt s.s_file map with
                  | Some f -> { s with s_file = f }
                  | None -> s
                in
                let rename =
                  List.map (function
                    | Minilang.Trace.Branch (s, b) -> Minilang.Trace.Branch (site s, b)
                    | Minilang.Trace.Return (s, r) -> Minilang.Trace.Return (site s, r)
                    | Minilang.Trace.Assign (s, n, v) ->
                      Minilang.Trace.Assign (site s, n, v)
                    | Minilang.Trace.Exception _ as e -> e)
                in
                let name = Repolib.Candidate.key m.candidate in
                let direct =
                  List.map2
                    (fun e (r : Minilang.Interp.run_result) ->
                      let d = run m.candidate e in
                      if d.trace <> rename r.trace || d.steps_used <> r.steps_used
                      then
                        Alcotest.failf "%s: %s on %S runs unlike its class" type_id
                          name e;
                      d.trace)
                    (positives @ negatives) rep_runs
                in
                let n_pos = List.length positives in
                Alcotest.(check bool)
                  (name ^ ": cached positive traces") true
                  (m.pos_raw = List.filteri (fun i _ -> i < n_pos) direct);
                if not m.pruned then
                  Alcotest.(check bool)
                    (name ^ ": cached negative traces") true
                    (m.neg_raw = List.filteri (fun i _ -> i >= n_pos) direct))
              members)
        classes;
      Alcotest.(check bool) (type_id ^ ": some classes have members") true
        (!shared > 0))
    [ "credit-card"; "ipv4"; "email"; "isbn" ]

let suite =
  [
    ("credit card end-to-end", `Slow, test_credit_card_end_to_end);
    ("telemetry instrumentation", `Slow, test_telemetry_instrumentation);
    ("parallel matches sequential", `Slow, test_parallel_matches_sequential);
    ("positives traced once", `Slow, test_positives_traced_once);
    ("clone classes match direct runs", `Slow,
     test_clone_classes_match_direct_runs);
    ("ipv6 escalates to S2", `Slow, test_ipv6_uses_s2);
    ("closed-alphabet types escalate", `Slow, test_gene_sequence_needs_s3);
    ("several popular types", `Slow, test_several_popular_types);
    ("format variants", `Slow, test_synthesized_handles_format_variants);
  ]
