(** Unit and property tests for the AutoType core algorithms:
    featurization, negative generation (S1/S2/S3), the greedy
    Best-k-Concise-DNF-Cover, bitsets and the LR baseline. *)

module F = Autotype_core.Feature
module N = Autotype_core.Negative
module D = Autotype_core.Dnf
module B = Autotype_core.Bitset

let site line = { Minilang.Trace.s_file = "t.py"; s_line = line }

let branch line taken = Minilang.Trace.Branch (site line, taken)
let ret line v = Minilang.Trace.Return (site line, v)

(* ----------------------------- bitset ----------------------------- *)

let test_bitset () =
  let b = B.create 20 in
  B.set b 3;
  B.set b 17;
  Alcotest.(check bool) "mem" true (B.mem b 3);
  Alcotest.(check bool) "not mem" false (B.mem b 4);
  Alcotest.(check int) "count" 2 (B.count b);
  let c = B.create 20 in
  B.set c 3;
  B.set c 5;
  Alcotest.(check int) "inter" 1 (B.count (B.inter b c));
  Alcotest.(check int) "union" 3 (B.count (B.union b c));
  Alcotest.(check int) "diff" 1 (B.count_diff b c);
  Alcotest.(check bool) "equal self" true (B.equal b (B.copy b))

let prop_bitset_union_count =
  QCheck.Test.make ~count:200 ~name:"bitset |A∪B| = |A| + |B| - |A∩B|"
    QCheck.(pair (list_of_size (QCheck.Gen.int_bound 30) (int_bound 63))
              (list_of_size (QCheck.Gen.int_bound 30) (int_bound 63)))
    (fun (xs, ys) ->
      let a = B.create 64 and b = B.create 64 in
      List.iter (B.set a) xs;
      List.iter (B.set b) ys;
      B.count (B.union a b) = B.count a + B.count b - B.count (B.inter a b))

(* -------------------------- featurization ------------------------- *)

let test_featurize () =
  let trace =
    [ branch 3 true; branch 3 true (* duplicate collapses *); branch 5 false;
      ret 7 (Minilang.Trace.Rbool true) ]
  in
  let lits = F.featurize trace in
  (* 3 trace literals + 1 black-box output literal. *)
  Alcotest.(check int) "set size" 4 (F.Literal_set.cardinal lits);
  Alcotest.(check bool) "has branch" true
    (F.Literal_set.mem (F.Branch_is (site 3, true)) lits);
  Alcotest.(check bool) "blackbox present" true
    (F.Literal_set.mem
       (F.Return_is (F.blackbox_site, Minilang.Trace.Rbool true))
       lits)

let test_featurize_returns_only () =
  let trace =
    [ branch 3 true; ret 4 (Minilang.Trace.Rnonzero);
      ret 9 (Minilang.Trace.Rbool false) ]
  in
  let lits = F.featurize ~mode:`Returns_only trace in
  (* Black boxes see only the final output value, not branch sites or
     inner returns. *)
  Alcotest.(check int) "one literal" 1 (F.Literal_set.cardinal lits);
  Alcotest.(check bool) "final value" true
    (F.Literal_set.mem
       (F.Return_is (F.blackbox_site, Minilang.Trace.Rbool false))
       lits)

(* ------------------------ negative generation --------------------- *)

let test_alphabet_inference () =
  (* Example 5 from the paper. *)
  let alpha = N.infer_alphabet [ "192.168.0.1"; "10.0.0.7" ] in
  Alcotest.(check bool) "dot is in alphabet" true
    (List.mem '.' alpha.N.full);
  Alcotest.(check bool) "dot is punctuation" false
    (List.mem '.' alpha.N.non_punct);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "%c in non-punct" c)
        true
        (List.mem c alpha.N.non_punct))
    [ '0'; '1'; '9' ]

let test_s1_preserves_structure () =
  let positives = [ "192.168.001.100"; "10.20.30.40" ] in
  let negs = N.generate ~per_positive:20 ~seed:3 N.S1 positives in
  List.iter
    (fun n ->
      (* Punctuation positions unchanged: same number of dots. *)
      let dots s =
        String.fold_left (fun acc c -> if c = '.' then acc + 1 else acc) 0 s
      in
      Alcotest.(check bool) "dots preserved" true
        (dots n = 3))
    negs

let test_s2_mutates_punctuation () =
  let positives = List.init 10 (fun i -> Printf.sprintf "%d92.168.0.%d" i i) in
  let negs = N.generate ~per_positive:40 ~seed:3 ~p:0.4 N.S2 positives in
  let some_punct_changed =
    List.exists
      (fun n ->
        String.fold_left (fun acc c -> if c = '.' then acc + 1 else acc) 0 n
        <> 3)
      negs
  in
  Alcotest.(check bool) "S2 sometimes breaks structure" true some_punct_changed;
  (* S2 stays in-alphabet. *)
  let alpha = N.infer_alphabet positives in
  List.iter
    (fun n ->
      String.iter
        (fun c ->
          if not (List.mem c alpha.N.full) then
            Alcotest.failf "S2 introduced out-of-alphabet %C in %S" c n)
        n)
    negs

let test_s3_leaves_alphabet () =
  let positives = [ "ACGTACGTACGT"; "TTGGCCAATTGG" ] in
  let negs = N.generate ~per_positive:50 ~seed:9 ~p:0.5 N.S3 positives in
  let escaped =
    List.exists
      (fun n ->
        String.exists (fun c -> not (String.contains "ACGT" c)) n)
      negs
  in
  Alcotest.(check bool) "S3 escapes the inferred alphabet" true escaped

let test_mutants_differ () =
  let positives = [ "4111111111111111" ] in
  List.iter
    (fun strategy ->
      let negs = N.generate ~per_positive:30 ~seed:1 strategy positives in
      List.iter
        (fun n ->
          if n = "4111111111111111" then
            Alcotest.failf "%s produced an unchanged mutant"
              (N.strategy_to_string strategy))
        negs)
    [ N.S1; N.S2; N.S3 ]

(* Proposition 1: the mutation spaces are ordered S1 ⊆ S2 ⊆ S3.  We test
   the observable consequence: every character S1 can produce at a
   position, S2 can too, and likewise S2 ⊆ S3. *)
let prop_mutation_hierarchy =
  QCheck.Test.make ~count:100 ~name:"S1 ⊆ S2 ⊆ S3 character pools"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Semtypes.Generators.make_rng seed in
      let positives =
        List.init 5 (fun _ -> Semtypes.Generators.ipv4 rng)
      in
      let alpha = N.infer_alphabet positives in
      (* S1 pool: in-alphabet non-punctuation; S2 pool: in-alphabet; S3
         pool: full printable set. *)
      List.for_all (fun c -> List.mem c alpha.N.full) alpha.N.non_punct
      && List.for_all (fun c -> List.mem c N.sigma_full) alpha.N.full)

(* ------------------------------ DNF -------------------------------- *)

let lits_of_list xs = F.Literal_set.of_list xs

let test_dnf_perfect_separation () =
  (* Positives take branch 6 or 9 plus 16; negatives miss 16 — the
     credit-card example of Section 5.2. *)
  let b6 = F.Branch_is (site 6, true)
  and b6f = F.Branch_is (site 6, false)
  and b9 = F.Branch_is (site 9, true)
  and b16 = F.Branch_is (site 16, true)
  and b16f = F.Branch_is (site 16, false) in
  let positives =
    [ lits_of_list [ b6; b16 ]; lits_of_list [ b6f; b9; b16 ];
      lits_of_list [ b6; b16 ] ]
  in
  let negatives =
    [ lits_of_list [ b6; b16f ]; lits_of_list [ b6f; b9; b16f ];
      lits_of_list [ F.Raised "ValueError" ] ]
  in
  let inst = D.make_instance ~positives ~negatives in
  let r = D.best_k_concise ~k:2 ~theta:0.0 inst in
  Alcotest.(check int) "covers all positives" 3 r.D.cov_p;
  Alcotest.(check int) "covers no negatives" 0 r.D.cov_n;
  Alcotest.(check bool) "nonempty dnf" true (r.D.clauses <> []);
  (* The synthesized DNF accepts exactly the positive traces. *)
  List.iter
    (fun t -> Alcotest.(check bool) "accepts positive" true (D.satisfies r.D.clauses t))
    positives;
  List.iter
    (fun t -> Alcotest.(check bool) "rejects negative" false (D.satisfies r.D.clauses t))
    negatives

let test_dnf_theta_budget () =
  (* One literal covers all P but also 2 of 4 N; with θ=0.25 (budget 1)
     it is inadmissible, with θ=0.5 (budget 2) it is chosen. *)
  let l = F.Branch_is (site 1, true) in
  let marker i = F.Branch_is (site (100 + i), true) in
  let positives = List.init 3 (fun i -> lits_of_list [ l; marker i ]) in
  let negatives =
    [ lits_of_list [ l; marker 50 ]; lits_of_list [ l; marker 51 ];
      lits_of_list [ marker 52 ]; lits_of_list [ marker 53 ] ]
  in
  let inst = D.make_instance ~positives ~negatives in
  let strict = D.best_k_concise ~k:1 ~theta:0.25 inst in
  Alcotest.(check bool) "strict budget limits coverage" true
    (strict.D.cov_n <= 1);
  let loose = D.best_k_concise ~k:1 ~theta:0.5 inst in
  Alcotest.(check int) "loose budget covers all P" 3 loose.D.cov_p

let test_dnf_k_conciseness () =
  (* Separation requires a conjunction of two literals; k=1 fails,
     k=2 succeeds. *)
  let a = F.Branch_is (site 1, true) and b = F.Branch_is (site 2, true) in
  let positives = [ lits_of_list [ a; b ] ] in
  let negatives = [ lits_of_list [ a ]; lits_of_list [ b ] ] in
  let inst = D.make_instance ~positives ~negatives in
  let k1 = D.best_k_concise ~k:1 ~theta:0.0 inst in
  Alcotest.(check int) "k=1 cannot separate" 0 k1.D.cov_p;
  let k2 = D.best_k_concise ~k:2 ~theta:0.0 inst in
  Alcotest.(check int) "k=2 separates" 1 k2.D.cov_p;
  (match k2.D.clauses with
   | [ clause ] -> Alcotest.(check int) "clause has 2 literals" 2 (List.length clause)
   | _ -> Alcotest.fail "expected one clause")

let test_dnf_group_merging () =
  (* Redundant literals with identical coverage merge into one group, and
     DNF-E expands the representative back to the full group. *)
  let a = F.Branch_is (site 1, true)
  and a' = F.Branch_is (site 2, true)  (* same coverage as a *)
  and noise = F.Branch_is (site 9, true) in
  let positives = [ lits_of_list [ a; a' ]; lits_of_list [ a; a' ] ] in
  let negatives = [ lits_of_list [ noise ] ] in
  let inst = D.make_instance ~positives ~negatives in
  let r = D.best_k_concise ~k:1 ~theta:0.0 inst in
  (match r.D.clauses with
   | [ [ _single ] ] -> ()
   | _ -> Alcotest.fail "concise DNF uses one representative");
  match r.D.expanded with
  | [ expanded_clause ] ->
    Alcotest.(check int) "DNF-E expands the group" 2
      (List.length expanded_clause)
  | _ -> Alcotest.fail "expected one expanded clause"

let test_dnf_empty_inputs () =
  let inst = D.make_instance ~positives:[] ~negatives:[] in
  let r = D.best_k_concise inst in
  Alcotest.(check bool) "empty instance, empty dnf" true (r.D.clauses = [])

let test_dnf_complete_variant () =
  let a = F.Branch_is (site 1, true) and b = F.Branch_is (site 2, true) in
  let positives = [ lits_of_list [ a; b ]; lits_of_list [ a ] ] in
  let negatives = [ lits_of_list [ b ] ] in
  let inst = D.make_instance ~positives ~negatives in
  let r = D.best_complete ~theta:0.0 inst in
  Alcotest.(check int) "complete covers both positives" 2 r.D.cov_p;
  Alcotest.(check int) "complete covers no negatives" 0 r.D.cov_n

(* Soundness property: the greedy cover never exceeds the θ budget, and
   its reported coverage matches recomputation from the clauses. *)
let prop_dnf_budget_sound =
  QCheck.Test.make ~count:100 ~name:"greedy DNF respects the θ budget"
    QCheck.(triple (int_bound 10_000) (int_range 1 3) (int_bound 100))
    (fun (seed, k, theta_pct) ->
      let theta = float_of_int theta_pct /. 100.0 in
      let rng = Random.State.make [| seed |] in
      let random_trace () =
        lits_of_list
          (List.filter_map
             (fun line ->
               if Random.State.bool rng then
                 Some (F.Branch_is (site line, Random.State.bool rng))
               else None)
             [ 1; 2; 3; 4; 5 ])
      in
      let positives = List.init 8 (fun _ -> random_trace ()) in
      let negatives = List.init 12 (fun _ -> random_trace ()) in
      let inst = D.make_instance ~positives ~negatives in
      let r = D.best_k_concise ~k ~theta inst in
      let budget = int_of_float (theta *. 12.0) in
      (* Recompute coverage from the produced clauses. *)
      let cov_p =
        List.length (List.filter (D.satisfies r.D.clauses) positives)
      in
      let cov_n =
        List.length (List.filter (D.satisfies r.D.clauses) negatives)
      in
      r.D.cov_n <= budget && cov_p >= r.D.cov_p && cov_n = r.D.cov_n)

(* Clause length property. *)
let prop_dnf_k_bound =
  QCheck.Test.make ~count:100 ~name:"clauses never exceed k literals"
    QCheck.(pair (int_bound 10_000) (int_range 1 3))
    (fun (seed, k) ->
      let rng = Random.State.make [| seed |] in
      let random_trace () =
        lits_of_list
          (List.filter_map
             (fun line ->
               if Random.State.bool rng then
                 Some (F.Branch_is (site line, Random.State.bool rng))
               else None)
             [ 1; 2; 3; 4; 5; 6 ])
      in
      let inst =
        D.make_instance
          ~positives:(List.init 6 (fun _ -> random_trace ()))
          ~negatives:(List.init 6 (fun _ -> random_trace ()))
      in
      let r = D.best_k_concise ~k ~theta:0.3 inst in
      List.for_all (fun c -> List.length c <= k) r.D.clauses)

(* ------------------------------- LR -------------------------------- *)

let test_lr_separates () =
  let a = F.Branch_is (site 1, true) and b = F.Branch_is (site 2, true) in
  let positives = List.init 10 (fun _ -> lits_of_list [ a ]) in
  let negatives = List.init 10 (fun _ -> lits_of_list [ b ]) in
  let model = Autotype_core.Lr.train ~positives ~negatives () in
  let score = Autotype_core.Lr.separation_score model ~positives ~negatives in
  Alcotest.(check bool) "separable data scores 1.0" true (score > 0.99)

let test_lr_chance_on_identical () =
  let a = F.Branch_is (site 1, true) in
  let positives = List.init 10 (fun _ -> lits_of_list [ a ]) in
  let negatives = List.init 10 (fun _ -> lits_of_list [ a ]) in
  let model = Autotype_core.Lr.train ~positives ~negatives () in
  let score = Autotype_core.Lr.separation_score model ~positives ~negatives in
  Alcotest.(check bool) "identical traces score 0.5" true
    (score > 0.45 && score < 0.55)

(* ---------------------------- trace cache --------------------------- *)

(* One two-parameter function gives two [Split_call] candidates with one
   id, one splitting on ',' and one on ' '.  Traced through one shared
   cache, each must get its own traces, the ones it gets uncached. *)
let test_trace_cache_keys_plans () =
  let source =
    "def longer_first(a, b):\n\
    \    if len(a) > len(b):\n\
    \        return True\n\
    \    return False\n"
  in
  let repo =
    Repolib.Repo.make "t/split-plans" "two split plans"
      [ { Repolib.Repo.path = "m.py"; source } ]
  in
  let plans = Repolib.Analyzer.candidates_of_repo repo in
  Alcotest.(check int) "two split plans" 2 (List.length plans);
  let positives = [ "1,2 3"; "12 3,4" ] and negatives = [ "1 2,3" ] in
  let trace ?cache c =
    let t =
      Autotype_core.Ranking.trace_candidate ?cache c ~positives ~negatives
    in
    (t.Autotype_core.Ranking.pos_raw, t.Autotype_core.Ranking.neg_raw)
  in
  let uncached = List.map (fun c -> trace c) plans in
  let cache = Autotype_core.Ranking.cache_create () in
  let cached = List.map (fun c -> trace ~cache c) plans in
  Alcotest.(check bool) "the plans trace differently" true
    (List.nth uncached 0 <> List.nth uncached 1);
  List.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Repolib.Candidate.describe c ^ ": cached traces are its own")
        true
        (List.nth cached i = List.nth uncached i))
    plans

(* The clone key must follow free names.  One helper file sits in
   three repositories: [b] rebinds at module level the name [LIMIT]
   the helper reads, [c] is a plain copy of [a] under other file names.
   [a] and [c] share a class and [c] gets [a]'s traces renamed; [b] is
   a class of its own, and its traces differ. *)
let test_clone_key_resolves_free_names () =
  let helper dir =
    { Repolib.Repo.path = dir ^ "/helper.py";
      source =
        "def helper_check(s):\n\
        \    if len(s) > LIMIT:\n\
        \        return False\n\
        \    return s.isdigit()\n" }
  in
  let conf dir v =
    { Repolib.Repo.path = dir ^ "/conf.py"; source = "LIMIT = " ^ v ^ "\n" }
  in
  let repo name files =
    let r = Repolib.Repo.make ("t/" ^ name) "helper copies" files in
    List.find
      (fun c -> c.Repolib.Candidate.func_name = "helper_check")
      (Repolib.Analyzer.candidates_of_repo r)
  in
  let a = repo "clone-a" [ conf "a" "8"; helper "a" ] in
  let b = repo "clone-b" [ conf "b" "8"; helper "b"; conf "b2" "3" ] in
  let c = repo "clone-c" [ conf "c" "8"; helper "c" ] in
  let key = Autotype_core.Ranking.class_key in
  Alcotest.(check string) "a copy shares the class" (key a) (key c);
  Alcotest.(check bool) "a rebinding splits the class" true (key a <> key b);
  let positives = [ "12345"; "1234567890" ] and negatives = [ "12a45" ] in
  let cache = Autotype_core.Ranking.cache_create () in
  let traces ?cache c =
    let t =
      Autotype_core.Ranking.trace_candidate ?cache c ~positives ~negatives
    in
    (t.Autotype_core.Ranking.pos_raw, t.Autotype_core.Ranking.neg_raw,
     t.Autotype_core.Ranking.steps)
  in
  let ta = traces ~cache a and tb = traces ~cache b and tc = traces ~cache c in
  Alcotest.(check bool) "the split class traces differently" true (ta <> tb);
  Alcotest.(check bool) "b's cached traces are its own" true (tb = traces b);
  Alcotest.(check bool) "c's shared traces are its own" true (tc = traces c);
  Alcotest.(check bool) "c's traces name c's files" true
    (List.exists
       (List.exists (function
         | Minilang.Trace.Branch (s, _) -> s.s_file = "c/helper.py"
         | _ -> false))
       (let p, _, _ = tc in p))

let suite =
  [
    ("bitset", `Quick, test_bitset);
    QCheck_alcotest.to_alcotest prop_bitset_union_count;
    ("featurize", `Quick, test_featurize);
    ("featurize returns-only (black box)", `Quick, test_featurize_returns_only);
    ("alphabet inference", `Quick, test_alphabet_inference);
    ("S1 preserves structure", `Quick, test_s1_preserves_structure);
    ("S2 mutates punctuation in-alphabet", `Quick, test_s2_mutates_punctuation);
    ("S3 escapes the alphabet", `Quick, test_s3_leaves_alphabet);
    ("mutants differ from source", `Quick, test_mutants_differ);
    QCheck_alcotest.to_alcotest prop_mutation_hierarchy;
    ("dnf: perfect separation", `Quick, test_dnf_perfect_separation);
    ("dnf: theta budget", `Quick, test_dnf_theta_budget);
    ("dnf: k-conciseness", `Quick, test_dnf_k_conciseness);
    ("dnf: group merging and DNF-E", `Quick, test_dnf_group_merging);
    ("dnf: empty inputs", `Quick, test_dnf_empty_inputs);
    ("dnf: complete variant", `Quick, test_dnf_complete_variant);
    QCheck_alcotest.to_alcotest prop_dnf_budget_sound;
    QCheck_alcotest.to_alcotest prop_dnf_k_bound;
    ("lr separates separable data", `Quick, test_lr_separates);
    ("lr chance on identical traces", `Quick, test_lr_chance_on_identical);
    ("trace cache keeps plans of one function apart", `Quick,
     test_trace_cache_keys_plans);
    ("clone key resolves free names", `Quick,
     test_clone_key_resolves_free_names);
  ]
