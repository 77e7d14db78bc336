(** Unit and property tests for the regexlite engine. *)

let m pattern s = Regexlite.string_matches pattern s

let test_literals () =
  Alcotest.(check bool) "exact" true (m "abc" "abc");
  Alcotest.(check bool) "prefix not full" false (m "abc" "abcd");
  Alcotest.(check bool) "dot" true (m "a.c" "axc");
  Alcotest.(check bool) "dot no newline skip" false (m "a.c" "ac");
  Alcotest.(check bool) "escaped dot" false (m "a\\.c" "axc");
  Alcotest.(check bool) "escaped dot literal" true (m "a\\.c" "a.c")

let test_classes () =
  Alcotest.(check bool) "digit" true (m "\\d+" "12345");
  Alcotest.(check bool) "digit rejects alpha" false (m "\\d+" "12a45");
  Alcotest.(check bool) "word" true (m "\\w+" "ab_9");
  Alcotest.(check bool) "space" true (m "a\\sb" "a b");
  Alcotest.(check bool) "range" true (m "[a-f]+" "cafe");
  Alcotest.(check bool) "range rejects" false (m "[a-f]+" "cage");
  Alcotest.(check bool) "negated" true (m "[^0-9]+" "abc");
  Alcotest.(check bool) "negated rejects" false (m "[^0-9]+" "ab1");
  Alcotest.(check bool) "class with dash last" true (m "[a-c-]+" "a-b");
  Alcotest.(check bool) "class escape" true (m "[\\d.]+" "1.2")

let test_quantifiers () =
  Alcotest.(check bool) "star empty" true (m "a*" "");
  Alcotest.(check bool) "star many" true (m "a*" "aaaa");
  Alcotest.(check bool) "plus needs one" false (m "a+" "");
  Alcotest.(check bool) "opt present" true (m "ab?c" "abc");
  Alcotest.(check bool) "opt absent" true (m "ab?c" "ac");
  Alcotest.(check bool) "exact count" true (m "a{3}" "aaa");
  Alcotest.(check bool) "exact count rejects" false (m "a{3}" "aa");
  Alcotest.(check bool) "range count" true (m "a{2,4}" "aaa");
  Alcotest.(check bool) "range count hi" false (m "a{2,4}" "aaaaa");
  Alcotest.(check bool) "open range" true (m "a{2,}" "aaaaaa");
  Alcotest.(check bool) "count at the limit" true (m "a{0,4294967294}" "aaa");
  Alcotest.(check bool) "group star" true (m "(ab)+" "ababab");
  Alcotest.(check bool) "group star partial" false (m "(ab)+" "ababa")

let test_alternation () =
  Alcotest.(check bool) "alt left" true (m "cat|dog" "cat");
  Alcotest.(check bool) "alt right" true (m "cat|dog" "dog");
  Alcotest.(check bool) "alt neither" false (m "cat|dog" "cow");
  Alcotest.(check bool) "nested" true (m "a(b|c)d" "acd");
  Alcotest.(check bool) "anchored alt" true (m "^(ab|cd)$" "cd")

let test_realistic_patterns () =
  let ipv4 =
    "^(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])(\\.(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])){3}$"
  in
  Alcotest.(check bool) "ipv4 ok" true (m ipv4 "192.168.0.1");
  Alcotest.(check bool) "ipv4 256" false (m ipv4 "256.1.1.1");
  Alcotest.(check bool) "ipv4 three" false (m ipv4 "1.2.3");
  let email = "^[a-zA-Z0-9._%+-]+@[a-zA-Z0-9.-]+\\.[a-zA-Z]{2,}$" in
  Alcotest.(check bool) "email ok" true (m email "a.b@x.co.uk");
  Alcotest.(check bool) "email bad" false (m email "a@@b.com");
  let ssn = "^[0-9]{3}-[0-9]{2}-[0-9]{4}$" in
  Alcotest.(check bool) "ssn" true (m ssn "123-45-6789");
  Alcotest.(check bool) "ssn short" false (m ssn "123-45-678")

let test_search_and_prefix () =
  let re = Regexlite.parse "\\d+" in
  (match Regexlite.search re "ab123cd" with
   | Some (2, 5) -> ()
   | Some (i, j) -> Alcotest.failf "search found (%d, %d)" i j
   | None -> Alcotest.fail "search failed");
  (match Regexlite.match_prefix re "12ab" with
   | Some 2 -> ()
   | _ -> Alcotest.fail "prefix match");
  match Regexlite.match_prefix re "ab12" with
  | None -> ()
  | Some _ -> Alcotest.fail "prefix must anchor at 0"

let test_parse_errors () =
  List.iter
    (fun p ->
      match Regexlite.parse p with
      | _ -> Alcotest.failf "expected parse error for %S" p
      | exception Regexlite.Parse_error _ -> ())
    [ "[abc"; "(ab"; "*a"; "a{4,2}"; "a\\";
      (* Counts above CPython's limit of 4,294,967,294. *)
      "a{99999999999999999999}"; "a{0,4294967295}";
      (* CPython's "multiple repeat" and "nothing to repeat". *)
      "a**"; "a{2}*"; "a*{2}"; "a*??"; "a*?+"; "a{2}{3}"; "{3}"; "^*" ]

let test_fuel_bound () =
  (* Catastrophic backtracking is bounded, not hanging. *)
  let re = Regexlite.parse "(a+)+b" in
  let s = String.make 40 'a' ^ "c" in
  Alcotest.(check bool) "pathological input returns" false
    (Regexlite.full_match re s)

(* Out of fuel is no match on every entry point. *)
let test_fuel_exhaustion_is_no_match () =
  let re = Regexlite.parse "(a{1,5}){1,50}b" in
  let s = String.make 60 'a' in
  Alcotest.(check bool) "full_match" false (Regexlite.full_match re s);
  Alcotest.(check (option int)) "match_prefix" None
    (Regexlite.match_prefix re s);
  Alcotest.(check (option (pair int int))) "search" None (Regexlite.search re s)

module Oracle_re = Oracle.Regex_walk

(* Cases checked against Python's [re]: a backtrack into an earlier
   iteration of a loop must see that iteration's start position. *)
let test_loop_state_on_backtrack () =
  let check pat s ~full ~prefix =
    let re = Regexlite.parse pat in
    List.iter
      (fun (engine, full_match, match_prefix) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s full_match %S (%s)" pat s engine)
          full (full_match re s);
        Alcotest.(check (option int))
          (Printf.sprintf "%s match_prefix %S (%s)" pat s engine)
          prefix (match_prefix re s))
      [ ("library", (fun re s -> Regexlite.full_match re s),
         Regexlite.match_prefix);
        ("oracle", Oracle_re.full_match, Oracle_re.match_prefix) ]
  in
  check "(aa|a)*ab" "aab" ~full:true ~prefix:(Some 3);
  check "(aa|a)*(b)?((ab|a)*(a|b){2}(aa)*)" "babbaa" ~full:true
    ~prefix:(Some 5);
  check "((([ab])?(b)+(b|ab))*(a|b)*)*(a)(ab)?" "baaab" ~full:true
    ~prefix:(Some 4)

(* CPython's repeat rule, each case checked against CPython 3.11:
   mandatory iterations run even when the body matches empty, an
   optional iteration never starts where the previous optional one
   started, and a lazy repeat tries what follows before each optional
   iteration. *)
let test_cpython_repeat_rule () =
  let prefix pat s expected =
    let re = Regexlite.parse pat in
    Alcotest.(check (option int))
      (Printf.sprintf "%s match_prefix %S" pat s)
      expected (Regexlite.match_prefix re s);
    Alcotest.(check (option int))
      (Printf.sprintf "%s match_prefix %S (oracle)" pat s)
      expected (Oracle_re.match_prefix re s)
  in
  let full pat s =
    let re = Regexlite.parse pat in
    Alcotest.(check bool) (Printf.sprintf "%s full_match %S" pat s) true
      (Regexlite.full_match re s);
    Alcotest.(check bool)
      (Printf.sprintf "%s full_match %S (oracle)" pat s)
      true (Oracle_re.full_match re s)
  in
  prefix "(a?){2}" "" (Some 0);
  full "x(a?){2}y" "xy";
  prefix "(|a)*" "a" (Some 0);
  prefix "(|a)+" "aa" (Some 0);
  prefix "(|a){2,3}" "aaa" (Some 0);
  prefix "(a?a?){1,}" "aaa" (Some 3);
  prefix "a*?" "aaa" (Some 0);
  prefix "a+?" "aaa" (Some 1);
  prefix "a??b" "ab" (Some 2);
  prefix "a{2}?" "aaaa" (Some 2);
  prefix "a{2,}?" "aaaa" (Some 2);
  prefix "a{,2}?a" "aaa" (Some 1);
  prefix "(aa)??a" "aaa" (Some 1);
  prefix "(ab)+?" "ababab" (Some 2);
  prefix "(a|ab)*?c" "ababc" (Some 5);
  prefix "(a|b){1,3}?b" "aab" (Some 3);
  prefix "(a?)*?b" "aab" (Some 3);
  prefix "(|a)*?b" "ab" (Some 2);
  (* An unbounded repeat over a nullable body ends at once instead of
     spinning down the fuel. *)
  let t0 = Unix.gettimeofday () in
  full "((aa)?){2,}" "";
  Alcotest.(check bool) "((aa)?){2,} answers in well under a second" true
    (Unix.gettimeofday () -. t0 < 0.5)

(* Braces and [$] as CPython 3.11 reads them: a [{] that starts no
   repeat is a literal, [{,n}] is [{0,n}], and [$] also matches before
   a final newline. *)
let test_braces_and_eol () =
  let prefix pat s expected =
    let re = Regexlite.parse pat in
    Alcotest.(check (option int))
      (Printf.sprintf "%s match_prefix %S" pat s)
      expected (Regexlite.match_prefix re s);
    Alcotest.(check (option int))
      (Printf.sprintf "%s match_prefix %S (oracle)" pat s)
      expected (Oracle_re.match_prefix re s)
  in
  prefix "a{" "a{" (Some 2);
  prefix "x{a}" "x{a}" (Some 4);
  prefix "a{3" "a{3" (Some 3);
  prefix "a{1,2" "a{1,2" (Some 5);
  prefix "a{}" "a{}" (Some 3);
  prefix "a{,3}" "aaaa" (Some 3);
  prefix "a{,}" "aaa" (Some 3);
  prefix "a$" "a\n" (Some 1);
  prefix "a$" "a\n\n" None;
  prefix "(a|ab)$" "ab\n" (Some 2);
  let re = Regexlite.parse "a$" in
  Alcotest.(check bool) "a$ does not fullmatch \"a\\n\"" false
    (Regexlite.full_match re "a\n");
  Alcotest.(check (option (pair int int))) "a$ searches \"ba\\n\"" (Some (1, 2))
    (Regexlite.search re "ba\n")

(* Seeded differential: random patterns over [a]/[b] with every
   quantifier form, greedy and lazy, over every body, each matched by
   the library and by the oracle on random short inputs.  [node] and
   [seq] return a pattern and whether it can match empty;
   [nullable_open] counts [{m,}] over a nullable body and [empty_alt]
   groups with an empty alternative, so the test shows it generates
   the shapes the repeat rule decides. *)
let gen_pattern rng ~nullable_open ~empty_alt =
  let pick arr = arr.(Random.State.int rng (Array.length arr)) in
  let quant body_nullable =
    let q, nullable =
      match Random.State.int rng 11 with
      | 0 -> ("*", true)
      | 1 -> ("+", body_nullable)
      | 2 -> ("?", true)
      | 3 ->
        let m = Random.State.int rng 3 in
        (Printf.sprintf "{%d}" m, m = 0 || body_nullable)
      | 4 ->
        let m = Random.State.int rng 3 in
        ( Printf.sprintf "{%d,%d}" m (m + Random.State.int rng 3),
          m = 0 || body_nullable )
      | 5 ->
        let m = Random.State.int rng 3 in
        if body_nullable then incr nullable_open;
        (Printf.sprintf "{%d,}" m, m = 0 || body_nullable)
      | 6 -> (Printf.sprintf "{,%d}" (Random.State.int rng 3), true)
      | _ -> ("", body_nullable)
    in
    (* A third of the quantifiers are lazy. *)
    if q <> "" && Random.State.int rng 3 = 0 then (q ^ "?", nullable)
    else (q, nullable)
  in
  let rec node depth =
    let atom, nullable =
      if depth = 0 || Random.State.int rng 3 > 0 then
        (pick [| "a"; "b"; "[ab]" |], false)
      else
        let alts =
          List.init (1 + Random.State.int rng 2) (fun _ -> seq (depth - 1))
        in
        if List.mem_assoc "" alts then incr empty_alt;
        ( "(" ^ String.concat "|" (List.map fst alts) ^ ")",
          List.exists snd alts )
    in
    let q, nullable = quant nullable in
    (atom ^ q, nullable)
  and seq depth =
    let items = List.init (Random.State.int rng 4) (fun _ -> node depth) in
    (String.concat "" (List.map fst items), List.for_all snd items)
  in
  fst (seq 2)

let test_flat_vs_cps_differential () =
  let rng = Random.State.make [| 0x5E6; 0x1EC5 |] in
  let failures = ref [] in
  let nullable_open = ref 0 and empty_alt = ref 0 in
  for _ = 1 to 3000 do
    let pat = gen_pattern rng ~nullable_open ~empty_alt in
    let re = Regexlite.parse pat in
    for _ = 1 to 10 do
      let s =
        String.init (Random.State.int rng 7) (fun _ ->
            if Random.State.bool rng then 'a' else 'b')
      in
      if
        Regexlite.full_match re s <> Oracle_re.full_match re s
        || Regexlite.match_prefix re s <> Oracle_re.match_prefix re s
        || Regexlite.search re s <> Oracle_re.search re s
      then failures := Printf.sprintf "%s on %S" pat s :: !failures
    done
  done;
  Alcotest.(check bool) "generates nullable repeat bodies" true
    (!nullable_open > 0);
  Alcotest.(check bool) "generates empty alternatives" true (!empty_alt > 0);
  match !failures with
  | [] -> ()
  | fs ->
    Alcotest.failf "%d library/oracle disagreement(s) in 30000 pairs; first: %s"
      (List.length fs) (List.hd (List.rev fs))

(* Property: a literal string always matches itself once special
   characters are escaped. *)
let prop_escaped_self_match =
  QCheck.Test.make ~count:200 ~name:"escaped literal matches itself"
    QCheck.(string_of_size (QCheck.Gen.int_range 1 15))
    (fun s ->
      let escaped =
        String.to_seq s
        |> Seq.map (fun c ->
               if
                 (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
                 || (c >= '0' && c <= '9')
               then String.make 1 c
               else if Char.code c >= 32 && Char.code c < 127 then
                 "\\" ^ String.make 1 c
               else "x")
        |> List.of_seq |> String.concat ""
      in
      let s =
        String.map (fun c -> if Char.code c < 32 || Char.code c >= 127 then 'x' else c) s
      in
      m escaped s)

let prop_digit_class =
  QCheck.Test.make ~count:200 ~name:"\\d{n} matches exactly n digits"
    QCheck.(int_range 1 12)
    (fun n ->
      let digits = String.init n (fun i -> Char.chr (Char.code '0' + (i mod 10))) in
      m (Printf.sprintf "\\d{%d}" n) digits
      && (not (m (Printf.sprintf "\\d{%d}" n) (digits ^ "1"))))

let suite =
  [
    ("literals", `Quick, test_literals);
    ("character classes", `Quick, test_classes);
    ("quantifiers", `Quick, test_quantifiers);
    ("alternation", `Quick, test_alternation);
    ("realistic patterns", `Quick, test_realistic_patterns);
    ("search and prefix", `Quick, test_search_and_prefix);
    ("parse errors", `Quick, test_parse_errors);
    ("fuel bound", `Quick, test_fuel_bound);
    QCheck_alcotest.to_alcotest prop_escaped_self_match;
    QCheck_alcotest.to_alcotest prop_digit_class;
    ("fuel exhaustion is no match", `Quick, test_fuel_exhaustion_is_no_match);
    ("loop state survives backtracking", `Quick, test_loop_state_on_backtrack);
    ("CPython's repeat rule", `Quick, test_cpython_repeat_rule);
    ("braces and $ as CPython reads them", `Quick, test_braces_and_eol);
    ("flat program agrees with the CPS executor", `Quick,
     test_flat_vs_cps_differential);
  ]
