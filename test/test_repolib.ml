(** Tests for the repository layer: candidate extraction (the invocation
    variants of Section 4.2 / Appendix D.1), the execution driver and
    the search engine. *)

let repo_of source ?(path = "m/mod.py") name =
  Repolib.Repo.make name ("test repo " ^ name)
    [ { Repolib.Repo.path; source } ]

let candidates_of source =
  Repolib.Analyzer.candidates_of_repo (repo_of source "t/candidates")

let invocations source =
  List.map (fun c -> c.Repolib.Candidate.invocation) (candidates_of source)

let test_variant_direct () =
  let inv = invocations "def f(s):\n    return len(s)\n" in
  Alcotest.(check bool) "direct" true (List.mem Repolib.Candidate.Direct inv)

let test_variant_class_then_method () =
  let src =
    {|
class P:
    def __init__(self):
        self.x = 0

    def handle(self, s):
        return len(s)
|}
  in
  match invocations src with
  | [ Repolib.Candidate.Class_then_method ("P", "handle") ] -> ()
  | _ -> Alcotest.fail "expected a=P(); a.handle(s)"

let test_variant_ctor_then_method () =
  let src =
    {|
class P:
    def __init__(self, s):
        self.s = s

    def size(self):
        return len(self.s)
|}
  in
  match invocations src with
  | [ Repolib.Candidate.Ctor_then_method ("P", "size") ] -> ()
  | _ -> Alcotest.fail "expected a=P(s); a.size()"

let test_variant_argv_stdin_file () =
  let src =
    {|
def from_args():
    return argv[1]

def from_console():
    return input()

def from_path(path):
    f = open(path)
    return f.read()
|}
  in
  let inv = invocations src in
  Alcotest.(check bool) "argv variant" true
    (List.mem (Repolib.Candidate.Via_argv "from_args") inv);
  Alcotest.(check bool) "stdin variant" true
    (List.mem (Repolib.Candidate.Via_stdin "from_console") inv);
  Alcotest.(check bool) "file variant" true
    (List.mem (Repolib.Candidate.Via_file "from_path") inv)

let test_variant_script_constant () =
  let src = "value = \"4111111111111111\"\nok = value.isdigit()\n" in
  let inv = invocations src in
  Alcotest.(check bool) "script var" true
    (List.exists
       (function Repolib.Candidate.Script_var (_, "value") -> true | _ -> false)
       inv)

let test_variant_multi_param () =
  let src = "def pair(a, b):\n    return a + b\n" in
  let inv = invocations src in
  Alcotest.(check bool) "comma split" true
    (List.exists
       (function Repolib.Candidate.Split_call (_, ',', 2) -> true | _ -> false)
       inv)

let test_default_params_ignored () =
  (* A function whose extra parameters all have defaults is
     single-parameter invocable. *)
  let src = "def f(s, strict=True):\n    return len(s)\n" in
  Alcotest.(check bool) "defaults ok" true
    (List.mem Repolib.Candidate.Direct (invocations src))

let test_driver_runs_variants () =
  let repo =
    Repolib.Repo.make "t/driver" "driver tests"
      [
        { Repolib.Repo.path = "d/lib.py";
          source =
            {|
def double(s):
    return s + s

class Wrap:
    def __init__(self):
        self.last = ""

    def keep(self, s):
        self.last = s
        return len(s)
|} };
        { Repolib.Repo.path = "d/script.py";
          source = "payload = \"abc\"\nsize = len(payload)\n" };
      ]
  in
  let cands = Repolib.Analyzer.candidates_of_repo repo in
  let find pred = List.find pred cands in
  let direct =
    find (fun c -> c.Repolib.Candidate.func_name = "double")
  in
  (match (Repolib.Driver.run_safe direct "xy").Minilang.Interp.outcome with
   | Minilang.Interp.Finished (Minilang.Value.Vstr "xyxy") -> ()
   | _ -> Alcotest.fail "direct run");
  let meth =
    find (fun c -> c.Repolib.Candidate.func_name = "Wrap.keep")
  in
  (match (Repolib.Driver.run_safe meth "hello").Minilang.Interp.outcome with
   | Minilang.Interp.Finished (Minilang.Value.Vint 5) -> ()
   | _ -> Alcotest.fail "class run");
  let script =
    find (fun c ->
        match c.Repolib.Candidate.invocation with
        | Repolib.Candidate.Script_var _ -> true
        | _ -> false)
  in
  (* The overridden constant flows through the script body. *)
  match (Repolib.Driver.run_safe script "wxyz").Minilang.Interp.outcome with
  | Minilang.Interp.Finished _ -> ()
  | _ -> Alcotest.fail "script run"

let test_driver_isolation () =
  (* Module state mutated by one run must not leak into the next. *)
  let repo =
    Repolib.Repo.make "t/isolation" "isolation"
      [
        { Repolib.Repo.path = "i/mod.py";
          source =
            {|
CACHE = []

def record(s):
    CACHE.append(s)
    return len(CACHE)
|} };
      ]
  in
  let c = List.hd (Repolib.Analyzer.candidates_of_repo repo) in
  let once () =
    match (Repolib.Driver.run_safe c "x").Minilang.Interp.outcome with
    | Minilang.Interp.Finished (Minilang.Value.Vint n) -> n
    | _ -> -1
  in
  Alcotest.(check int) "first run" 1 (once ());
  Alcotest.(check int) "second run starts fresh" 1 (once ())

let test_executable_probe () =
  (* The probe rejects candidates whose callable is missing (load-time
     failure), mirroring "compilable and executable". *)
  let repo =
    Repolib.Repo.make "t/broken" "broken"
      [
        { Repolib.Repo.path = "b/mod.py";
          source = "undefined_helper()\n\ndef ok(s):\n    return s\n" };
      ]
  in
  let cands = Repolib.Analyzer.candidates_of_repo repo in
  (* "ok" is still defined because definitions execute before the
     script error aborts the load? Definition order matters: the call
     precedes the def, so the def never executes. *)
  let ok = List.find (fun c -> c.Repolib.Candidate.func_name = "ok") cands in
  Alcotest.(check bool) "broken module's function is not executable" false
    (Repolib.Driver.executable ok ~probe:"x")

let test_search_ranking () =
  let repos =
    [
      Repolib.Repo.make "a/luhn-validator" "credit card number validation"
        [ { Repolib.Repo.path = "x.py"; source = "def f(s):\n    pass\n" } ];
      Repolib.Repo.make "b/weather" "weather station data logger"
        [ { Repolib.Repo.path = "y.py"; source = "def g(s):\n    pass\n" } ];
    ]
  in
  let index = Repolib.Search.build_index repos in
  (match Repolib.Search.search index ~k:5 "credit card" with
   | top :: _ ->
     Alcotest.(check string) "topical repo first" "a/luhn-validator"
       top.Repolib.Repo.repo_name
   | [] -> Alcotest.fail "no results");
  Alcotest.(check bool) "irrelevant query excludes the repo" true
    (Repolib.Search.search index ~k:5 "quantum chemistry"
     |> List.for_all (fun r -> r.Repolib.Repo.repo_name <> "a/luhn-validator"))

let test_search_stemming () =
  let repos =
    [
      Repolib.Repo.make "a/bic" "validation for payment messages"
        [ { Repolib.Repo.path = "x.py"; source = "def f(s):\n    pass\n" } ];
    ]
  in
  let index = Repolib.Search.build_index repos in
  match Repolib.Search.search index ~k:5 "payment message" with
  | top :: _ ->
    Alcotest.(check string) "plural stems match" "a/bic" top.Repolib.Repo.repo_name
  | [] -> Alcotest.fail "stemming failed"

let test_script_argv_variant () =
  let repo =
    Repolib.Repo.make "t/script-argv" "cli script"
      [
        { Repolib.Repo.path = "s/cli.py";
          source =
            "word = argv[1]\nif not word.isalpha():\n    raise ValueError(\"not a word\")\nprint(word)\n" };
      ]
  in
  let cands = Repolib.Analyzer.candidates_of_repo repo in
  let script_argv =
    List.find_opt
      (fun c ->
        match c.Repolib.Candidate.invocation with
        | Repolib.Candidate.Script_argv _ -> true
        | _ -> false)
      cands
  in
  match script_argv with
  | None -> Alcotest.fail "script argv candidate not extracted"
  | Some c ->
    (match (Repolib.Driver.run_safe c "hello").Minilang.Interp.outcome with
     | Minilang.Interp.Finished _ -> ()
     | _ -> Alcotest.fail "script argv accepts a word");
    (match (Repolib.Driver.run_safe c "42").Minilang.Interp.outcome with
     | Minilang.Interp.Errored ("ValueError", _) -> ()
     | _ -> Alcotest.fail "script argv rejects digits")

let test_config_with_hint_clamp () =
  let base = Repolib.Driver.default_config in
  let max_steps (c : Minilang.Interp.config) = c.Minilang.Interp.max_steps in
  Alcotest.(check int) "no hint: unchanged" (max_steps base)
    (max_steps (Repolib.Driver.config_with_hint base None));
  Alcotest.(check int) "hint below the cap: adopted" 7
    (max_steps (Repolib.Driver.config_with_hint base (Some 7)));
  Alcotest.(check int) "hint above the cap: unchanged" (max_steps base)
    (max_steps
       (Repolib.Driver.config_with_hint base (Some (max_steps base * 2))));
  (* Regression: a hint <= 0 passed the [budget < max_steps] guard and
     produced a config that could never execute a single step. *)
  Alcotest.(check int) "zero hint clamps to 1" 1
    (max_steps (Repolib.Driver.config_with_hint base (Some 0)));
  Alcotest.(check int) "negative hint clamps to 1" 1
    (max_steps (Repolib.Driver.config_with_hint base (Some (-5))))

let test_regex_fuel_exhaustion () =
  (* A regex search that runs out of fuel is no match: the run finishes
     instead of escaping the sandbox with an OCaml exception. *)
  let src =
    "def f(value):\n\
    \    if re.match(\"(a{1,5}){1,50}b\", value):\n\
    \        return True\n\
    \    return False\n"
  in
  let c = List.hd (candidates_of src) in
  let r = Repolib.Driver.run_safe c (String.make 60 'a') in
  match r.Minilang.Interp.outcome with
  | Minilang.Interp.Finished (Minilang.Value.Vbool false) -> ()
  | _ -> Alcotest.fail "expected the run to finish with False"

(* Numbers too large for an OCaml int fail with typed errors: an
   integer literal is a lex error the repository reports, and a regex
   repeat count is a ValueError inside the run. *)
let test_oversized_numbers () =
  let repo = repo_of "def f(s):\n    return 99999999999999999999\n" "t/bigint" in
  (match Repolib.Repo.parse_each repo with
   | [], [ (_, 2, msg) ] ->
     Alcotest.(check string) "lex error" "lex: integer literal too large" msg
   | _ -> Alcotest.fail "expected one lex error on line 2");
  let src =
    "def check(s):\n\
    \    if re.match(s, \"aaa\"):\n\
    \        return True\n\
    \    return False\n"
  in
  let c = List.hd (candidates_of src) in
  let r = Repolib.Driver.run_safe c "a{99999999999999999999}" in
  match r.Minilang.Interp.outcome with
  | Minilang.Interp.Errored ("ValueError", _) -> ()
  | _ -> Alcotest.fail "expected the run to raise ValueError"

(* Two repositories under one name whose first five files are equal
   and whose sixth differs: no cache may answer for one with the
   other's parse or analyses. *)
let test_same_name_repos_kept_apart () =
  let file path source = { Repolib.Repo.path; source } in
  let make sixth =
    Repolib.Repo.make "t/six" "six files"
      (file "f0.py"
         "def g0(s):\n\
         \    if len(s) > LIMIT:\n\
         \        return False\n\
         \    return True\n"
       :: List.init 4 (fun i ->
              file (Printf.sprintf "f%d.py" (i + 1))
                (Printf.sprintf "def h%d(s):\n    return s\n" (i + 1)))
       @ [ file "f5.py" sixth ])
  in
  let g0 repo =
    List.find
      (fun c -> c.Repolib.Candidate.func_name = "g0")
      (Repolib.Analyzer.candidates_of_repo repo)
  in
  let short = make "LIMIT = 3\n" in
  let long = make "LIMIT = 8\n" in
  let short_g0 = g0 short in
  (match (Repolib.Driver.run_safe (g0 long) "12345").Minilang.Interp.outcome with
   | Minilang.Interp.Finished (Minilang.Value.Vbool true) -> ()
   | _ -> Alcotest.fail "g0 of LIMIT = 8 must accept a 5-character value");
  Alcotest.(check bool) "distinct clone classes" false
    ((Repolib.Analyzer.clone short_g0).Repolib.Analyzer.class_key
    = (Repolib.Analyzer.clone (g0 long)).Repolib.Analyzer.class_key);
  let broken = make "LIMIT = = 3\n" in
  (match Repolib.Repo.parse_all broken with
   | Error msg ->
     Alcotest.(check bool) "parse_all names f5.py:1" true
       (String.starts_with ~prefix:"f5.py:1:" msg)
   | Ok _ -> Alcotest.fail "parse_all must reject the broken sixth file");
  (match Repolib.Repo.parse_each broken with
   | _, [ ("f5.py", 1, _) ] -> ()
   | _ -> Alcotest.fail "parse_each must report the broken sixth file");
  Alcotest.(check bool) "repo_diagnostics reports it" true
    (List.exists
       (fun (d : Staticcheck.Diag.t) -> d.Staticcheck.Diag.code = "E100")
       (Repolib.Analyzer.repo_diagnostics broken))

let suite =
  [
    ("variant 1: direct", `Quick, test_variant_direct);
    ("variant 2: paramless ctor + method", `Quick, test_variant_class_then_method);
    ("variant 3: 1-param ctor + paramless method", `Quick,
     test_variant_ctor_then_method);
    ("variants 4-6: argv, stdin, file", `Quick, test_variant_argv_stdin_file);
    ("script hard-coded constant", `Quick, test_variant_script_constant);
    ("multi-parameter splitting", `Quick, test_variant_multi_param);
    ("default params", `Quick, test_default_params_ignored);
    ("driver runs all variants", `Quick, test_driver_runs_variants);
    ("driver isolates runs", `Quick, test_driver_isolation);
    ("executable probe", `Quick, test_executable_probe);
    ("search ranking", `Quick, test_search_ranking);
    ("search stemming", `Quick, test_search_stemming);
    ("script argv variant", `Quick, test_script_argv_variant);
    ("budget hint clamped to >= 1", `Quick, test_config_with_hint_clamp);
    ("regex out of fuel is no match", `Quick, test_regex_fuel_exhaustion);
    ("oversized numbers fail with typed errors", `Quick, test_oversized_numbers);
    ("same-named repositories kept apart", `Quick,
     test_same_name_repos_kept_apart);
  ]
