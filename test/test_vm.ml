(** Differential testing of the bytecode VM (lib/minilang/{compile,vm})
    against the tree-walking oracle (test/oracle, DESIGN.md §14).

    Every run happens twice — through the oracle's reference runner
    (tree-walker, fresh scope per run) and through
    [Repolib.Driver.run_safe] (VM, scope cache, compile cache) — and the
    two [run_result]s must be byte-identical: outcome (including error
    kind and message), the full trace event list, [steps_used] and
    captured print output.  The corpus is the absint fuzz generator's
    programs plus an extended pool exercising the VM-specific machinery:
    slot binding, try/except/finally sub-units, break/continue
    trampolines, nested defs with defaults, classes, [global],
    unpacking, and every specialized opcode; then every candidate of the
    four-type pipeline workload on its positives and final negatives,
    plus one small repository per invocation plan the workload lacks.
    Step-budget sweeps around the exact step count pin the batched tick
    accounting to the oracle's boundary. *)

open Minilang

let run_both ?config (c : Repolib.Candidate.t) input =
  ( Oracle.Reference.run_safe ?config c input,
    Repolib.Driver.run_safe ?config c input )

let failures = ref []

let mismatch src input what fmt =
  Printf.ksprintf
    (fun detail ->
      failures :=
        Printf.sprintf "on input %S: engines differ on %s: %s\n--\n%s" input
          what detail src
        :: !failures)
    fmt

let outcome_str = function
  | Interp.Finished v ->
    Printf.sprintf "Finished <%s> %s" (Value.type_name v)
      (Value.to_repr_string v)
  | Interp.Errored (k, m) -> Printf.sprintf "Errored (%s, %s)" k m
  | Interp.Hit_limit m -> "Hit_limit " ^ m
  | Interp.Deadline_exceeded m -> "Deadline " ^ m

(* Structural equality of results that stops at objects, functions and
   classes — their scopes are cyclic — and compares those by what they
   print as (class or function name). *)
let rec same_value (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.Vlist x, Value.Vlist y -> List.equal same_value !x !y
  | Value.Vtuple x, Value.Vtuple y -> List.equal same_value x y
  | Value.Vdict x, Value.Vdict y ->
    List.equal
      (fun (k, v) (k', v') -> same_value k k' && same_value v v')
      !x !y
  | (Value.Vobj _ | Value.Vfun _ | Value.Vbound _ | Value.Vclass _), _ ->
    Value.type_name a = Value.type_name b
    && Value.to_display_string a = Value.to_display_string b
  | _ -> compare a b = 0

let same_outcome a b =
  match (a, b) with
  | Interp.Finished x, Interp.Finished y -> same_value x y
  | _ -> a = b

let compare_runs src input (off : Interp.run_result) (on : Interp.run_result) =
  if not (same_outcome off.Interp.outcome on.Interp.outcome) then
    mismatch src input "outcome" "oracle=%s vm=%s"
      (outcome_str off.Interp.outcome)
      (outcome_str on.Interp.outcome);
  if off.Interp.trace <> on.Interp.trace then
    mismatch src input "trace" "oracle has %d events, vm has %d"
      (List.length off.Interp.trace)
      (List.length on.Interp.trace);
  if off.Interp.steps_used <> on.Interp.steps_used then
    mismatch src input "steps" "oracle=%d vm=%d" off.Interp.steps_used
      on.Interp.steps_used;
  if off.Interp.printed <> on.Interp.printed then
    mismatch src input "printed output" "oracle=%d lines, vm=%d lines"
      (List.length off.Interp.printed)
      (List.length on.Interp.printed)

(* ------------------- extended program generator -------------------- *)

let pick rng arr = arr.(Random.State.int rng (Array.length arr))

(* Statement blocks (body of [f], 4-space indented) chosen to cover VM
   paths the absint generator never reaches. *)
let ext_blocks =
  [| "    acc = []\n\
      \    for ch in value:\n\
      \        if ch == \" \":\n\
      \            continue\n\
      \        acc.append(ch)\n\
      \    k = len(acc)\n";
     "    try:\n\
      \        n = int(value)\n\
      \    except ValueError:\n\
      \        n = -1\n";
     "    try:\n\
      \        n = int(value)\n\
      \    except ValueError as e:\n\
      \        n = len(e)\n\
      \    finally:\n\
      \        m = 1\n";
     "    try:\n\
      \        raise ValueError(value)\n\
      \    except oops:\n\
      \        r = oops\n";
     "    total = 0\n\
      \    for ch in value:\n\
      \        total += 1\n\
      \        if total > 5:\n\
      \            break\n";
     "    d = {}\n\
      \    for ch in value:\n\
      \        d[ch] = 1\n\
      \    n = len(d)\n";
     "    a, b = (len(value), 2)\n    c = a * b\n";
     "    s = value[1:]\n    t = value[:2]\n    u = s + t\n";
     "    def helper(x, k=2):\n\
      \        return len(x) + k\n\
      \    h = helper(value)\n";
     "    global seen\n    seen = seen + 1\n";
     "    parts = value.split(\"-\")\n    joined = \"+\".join(parts)\n";
     "    if value:\n\
      \        x = value[0]\n\
      \    else:\n\
      \        x = \"\"\n";
     "    while len(value) > 3:\n        value = value[1:]\n";
     "    msg = \"{}-{}\".format(len(value), value)\n";
     "    z = value.find(\"a\") + value.count(\"a\")\n";
     "    w = value.zfill(8)\n    ok = w.isdigit()\n";
     "    for i in range(3):\n\
      \        for j in range(2):\n\
      \            if i == j:\n\
      \                break\n\
      \        else_done = i\n";
     "    lst = [1, 2, 3]\n\
      \    lst[1] = len(value)\n\
      \    tot = lst[0] + lst[1] + lst[2]\n"
  |]

let class_preamble =
  "class Checker:\n\
   \    def __init__(self, v):\n\
   \        self.v = v\n\
   \    def ok(self):\n\
   \        return len(self.v) > 2\n\n"

let gen_ext_program rng =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "seen = 0\n";
  let with_class = Random.State.int rng 3 = 0 in
  if with_class then Buffer.add_string buf class_preamble;
  Buffer.add_string buf "def f(value):\n";
  for _ = 1 to 1 + Random.State.int rng 3 do
    Buffer.add_string buf (pick rng ext_blocks)
  done;
  if with_class then
    Buffer.add_string buf
      "    c = Checker(value)\n    if c.ok():\n        return True\n";
  (match Random.State.int rng 4 with
   | 0 -> Buffer.add_string buf "    return len(value) > 2\n"
   | 1 -> Buffer.add_string buf "    return value.strip()\n"
   | 2 -> Buffer.add_string buf "    raise ValueError(\"bad\")\n"
   | _ -> Buffer.add_string buf "    return None\n");
  Buffer.contents buf

let direct_candidates src =
  let repo =
    Repolib.Repo.make "fuzz/vm" "vm differential fuzz"
      [ { Repolib.Repo.path = "gen.py"; source = src } ]
  in
  List.filter
    (fun (c : Repolib.Candidate.t) ->
      c.Repolib.Candidate.invocation = Repolib.Candidate.Direct
      && c.Repolib.Candidate.func_name = "f")
    (Repolib.Analyzer.candidates_of_repo repo)

let budget_config max_steps =
  { Repolib.Driver.default_config with
    Interp.max_steps = max 1 max_steps }

(* Step-budget sweep: run both engines under budgets pinned to the
   exact step count of the unconstrained run.  Any divergence in where
   the batched VM ticks charge (Hit_limit one step early/late, a
   different truncated trace) fails here. *)
let sweep_budgets src c input full_steps =
  List.iter
    (fun budget ->
      let config = budget_config budget in
      let off, on = run_both ~config c input in
      compare_runs src (Printf.sprintf "%s (budget %d)" input budget) off on)
    [ 1; 2; (full_steps / 2) + 1; full_steps - 1; full_steps; full_steps + 1 ]

let test_differential () =
  let n_programs = 500 in
  let rng = Random.State.make [| 0x7D1; 0xBEEF |] in
  let fuzz_rng = Random.State.make [| 0xA551; 0x0F17 |] in
  let n_runs = ref 0 in
  for i = 1 to n_programs do
    let src =
      (* Half the corpus is the absint fuzz generator's (detector-shaped
         programs, loops, regexes); half is the extended pool. *)
      if i mod 2 = 0 then Test_absint_fuzz.gen_program fuzz_rng
      else gen_ext_program rng
    in
    let inputs = List.init 5 (fun _ -> Test_absint_fuzz.gen_input rng) in
    List.iter
      (fun c ->
        List.iter
          (fun input ->
            let off, on = run_both c input in
            incr n_runs;
            compare_runs src input off on;
            (* Budget sweeps are expensive; sample them. *)
            if i mod 25 = 0 && off.Interp.steps_used > 2 then
              sweep_budgets src c input off.Interp.steps_used)
          inputs)
      (direct_candidates src)
  done;
  (match !failures with
   | [] -> ()
   | fs ->
     Alcotest.failf "%d engine divergence(s); first:\n%s" (List.length fs)
       (List.hd (List.rev fs)));
  Alcotest.(check bool) "ran a meaningful corpus" true (!n_runs >= 2000)

(* ------------------- targeted specialized opcodes ------------------ *)

(* One program per specialized fast path (I_call1 len/int/str, str
   index/slice inlining, each method mspec, pre-compiled regex), with
   shapes that HIT the fast path and shapes that must fall back to
   generic dispatch (same errors, same results). *)
let opcode_cases =
  [ ( "call1 len/int/str fast paths",
      "def f(value):\n\
       \    n = len(value)\n\
       \    s = str(n)\n\
       \    if value.isdigit():\n\
       \        return int(value) + len(s)\n\
       \    return s\n",
      [ "123"; ""; "abc"; "00" ] );
    ( "call1 fallback shapes",
      "def f(value):\n\
       \    a = len([1, 2])\n\
       \    b = int(\"7\")\n\
       \    c = int(value)\n\
       \    return a + b + c\n",
      [ "5"; "x"; "" ] );
    ( "str index and slice inlining",
      "def f(value):\n\
       \    if len(value) < 2:\n\
       \        return value[0]\n\
       \    return value[0] + value[-1] + value[1:3] + value[:2] + value[2:]\n",
      [ "abcdef"; "ab"; ""; "x" ] );
    ( "slice bound type errors",
      "def f(value):\n\
       \    return value[\"a\":2]\n",
      [ "abc" ] );
    ( "strip/lstrip/rstrip specialization",
      "def f(value):\n\
       \    return value.strip() + \"|\" + value.lstrip() + \"|\" + \
        value.rstrip()\n",
      [ "  ab  "; "\t x\n"; "" ] );
    ( "upper/lower/isdigit/isalpha/isalnum",
      "def f(value):\n\
       \    if value.isdigit() or value.isalpha() or value.isalnum():\n\
       \        return value.upper() + value.lower()\n\
       \    return False\n",
      [ "abc"; "123"; "a1"; "-"; "" ] );
    ( "split specializations and fallback",
      "def f(value):\n\
       \    a = value.split()\n\
       \    b = value.split(\",\")\n\
       \    c = value.split(\"\")\n\
       \    return len(a) + len(b) + len(c)\n",
      [ "a b,c"; "" ] );
    ( "replace/startswith/endswith/find",
      "def f(value):\n\
       \    if value.startswith(\"a\") and value.endswith(\"c\"):\n\
       \        return value.replace(\"b\", \"x\")\n\
       \    return value.find(\"b\")\n",
      [ "abc"; "zzz"; "b"; "" ] );
    ( "append specialization",
      "def f(value):\n\
       \    acc = []\n\
       \    for ch in value:\n\
       \        acc.append(ch)\n\
       \    return len(acc)\n",
      [ "abc"; "" ] );
    ( "join via generic dispatch",
      "def f(value):\n\
       \    return \",\".join([value, \"x\"]) + \",\".join([])\n",
      [ "ab"; "" ] );
    ( "precompiled regex literal",
      "def f(value):\n\
       \    if re.match(\"[0-9]+\", value):\n\
       \        return re.findall(\"[0-9]\", value)\n\
       \    return re.search(\"[a-z]+\", value)\n",
      [ "123a"; "abc"; "" ] );
    ( "regex fallback: shadowed re and dynamic pattern",
      "def f(value):\n\
       \    p = \"[0-9]+\"\n\
       \    a = re.fullmatch(p, value)\n\
       \    re2 = \"zz\"\n\
       \    return a\n",
      [ "42"; "4x" ] );
    ( "binop int/str fast paths and mixed fallback",
      "def f(value):\n\
       \    n = len(value)\n\
       \    if n + 1 > 2 and n - 1 <= 5 and n * 2 != 3:\n\
       \        return value + \"!\" == value\n\
       \    return n / 2\n",
      [ "abcd"; "a"; "" ] ) ]

let test_opcodes () =
  List.iter
    (fun (name, src, inputs) ->
      match direct_candidates src with
      | [ c ] ->
        List.iter
          (fun input ->
            let off, on = run_both c input in
            compare_runs src input off on)
          inputs
      | cs ->
        Alcotest.failf "%s: expected 1 direct candidate, got %d" name
          (List.length cs))
    opcode_cases;
  match !failures with
  | [] -> ()
  | fs ->
    Alcotest.failf "%d opcode divergence(s); first:\n%s" (List.length fs)
      (List.hd (List.rev fs))

(* ----------------------------- deadline ---------------------------- *)

let spin_src = "def f(value):\n    while True:\n        pass\n"

let test_deadline_parity () =
  match direct_candidates spin_src with
  | [ c ] ->
    let big = { Interp.max_steps = 50_000_000; max_call_depth = 48 } in
    let deadline_ns () = Int64.add (Telemetry.now_ns ()) 2_000_000L in
    let check_run label (r : Interp.run_result) =
      (match r.Interp.outcome with
       | Interp.Deadline_exceeded _ -> ()
       | o -> Alcotest.failf "%s: expected deadline, got %s" label (outcome_str o));
      (* The deadline is only probed every 256 steps — both engines must
         honour exactly that cadence (Absint.Stepbound's contract). *)
      Alcotest.(check int)
        (label ^ " stops on a 256-step probe boundary")
        0
        (r.Interp.steps_used land 255)
    in
    check_run "oracle"
      (Oracle.Reference.run_safe ~config:big ~deadline_ns:(deadline_ns ()) c
         "x");
    check_run "vm"
      (Repolib.Driver.run_safe ~config:big ~deadline_ns:(deadline_ns ()) c "x")
  | _ -> Alcotest.fail "spin candidate not found"

(* --------------------------- compile cache ------------------------- *)

let finished (r : Interp.run_result) =
  match r.Interp.outcome with Interp.Finished _ -> true | _ -> false

let test_compile_cache () =
  let src = "def f(value):\n    return value.strip().isdigit()\n" in
  (match direct_candidates src with
   | [ c ] ->
     let r1 = Repolib.Driver.run_safe c "12" in
     let s1 = Compile.stats () in
     let r2 = Repolib.Driver.run_safe c "ab " in
     let s2 = Compile.stats () in
     Alcotest.(check bool) "first run finished" true (finished r1);
     Alcotest.(check bool) "second run finished" true (finished r2);
     Alcotest.(check int) "no recompilation on the second run"
       s1.Compile.compiles s2.Compile.compiles;
     Alcotest.(check bool) "second run hit the compile cache" true
       (s2.Compile.cache_hits > s1.Compile.cache_hits)
   | _ -> Alcotest.fail "candidate not found");
  (* A [Script_var] run executes a rewrite of its script; the rewrite
     must be the same program on every run or each run compiles it. *)
  let repo =
    Repolib.Repo.make "vm/script-var" "script variable compile cache"
      [ { Repolib.Repo.path = "s/check.py";
          source = "value = \"123\"\nok = value.isdigit()\nprint(ok)\n" } ]
  in
  match
    List.find_opt
      (fun (c : Repolib.Candidate.t) ->
        match c.Repolib.Candidate.invocation with
        | Repolib.Candidate.Script_var _ -> true
        | _ -> false)
      (Repolib.Analyzer.candidates_of_repo repo)
  with
  | Some c ->
    let r1 = Repolib.Driver.run_safe c "42" in
    let s1 = Compile.stats () in
    let r2 = Repolib.Driver.run_safe c "x7" in
    let s2 = Compile.stats () in
    Alcotest.(check (list string)) "first script run read its input"
      [ "True" ] r1.Interp.printed;
    Alcotest.(check (list string)) "second script run read its input"
      [ "False" ] r2.Interp.printed;
    Alcotest.(check int) "no recompilation on the second script run"
      s1.Compile.compiles s2.Compile.compiles
  | None -> Alcotest.fail "script-variable candidate not found"

(* --------------------------- corpus parity ------------------------- *)

(* Every invocation plan, by name.  The match is exhaustive, so a new
   plan breaks the build here until [all_plans] and the parity corpus
   cover it. *)
let plan_name : Repolib.Candidate.invocation -> string = function
  | Repolib.Candidate.Direct -> "Direct"
  | Repolib.Candidate.Class_then_method _ -> "Class_then_method"
  | Repolib.Candidate.Ctor_then_method _ -> "Ctor_then_method"
  | Repolib.Candidate.Via_argv _ -> "Via_argv"
  | Repolib.Candidate.Via_stdin _ -> "Via_stdin"
  | Repolib.Candidate.Via_file _ -> "Via_file"
  | Repolib.Candidate.Script_var _ -> "Script_var"
  | Repolib.Candidate.Script_argv _ -> "Script_argv"
  | Repolib.Candidate.Script_stdin _ -> "Script_stdin"
  | Repolib.Candidate.Split_call _ -> "Split_call"

let all_plans =
  List.sort compare
    [ "Direct"; "Class_then_method"; "Ctor_then_method"; "Via_argv";
      "Via_stdin"; "Via_file"; "Script_var"; "Script_argv"; "Script_stdin";
      "Split_call" ]

(* One small repository for each plan the four-type workload lacks,
   and one whose module state changes on every call, which the driver
   must reload rather than reuse. *)
let plan_repos =
  [ ( "Direct",
      "SEEN = []\n\
       calls = 0\n\n\
       def remember(s):\n\
      \    global calls\n\
      \    calls += 1\n\
      \    SEEN.append(s)\n\
      \    if calls > 1 or len(SEEN) > 1:\n\
      \        return False\n\
      \    return s.isdigit()\n" );
    ( "Ctor_then_method",
      "class Card:\n\
      \    def __init__(self, s):\n\
      \        self.digits = s.replace(\" \", \"\")\n\n\
      \    def valid(self):\n\
      \        if not self.digits.isdigit():\n\
      \            return False\n\
      \        total = 0\n\
      \        for ch in self.digits:\n\
      \            total += int(ch)\n\
      \        return total % 10 == 0\n" );
    ( "Via_argv",
      "def main():\n\
      \    arg = argv[1]\n\
      \    if len(arg) > 3 and arg[0].isdigit():\n\
      \        return True\n\
      \    return False\n" );
    ( "Via_stdin",
      "def ask():\n\
      \    line = input(\"value: \")\n\
      \    parts = line.split(\"-\")\n\
      \    if len(parts) == 3:\n\
      \        return True\n\
      \    return False\n" );
    ( "Via_file",
      "def check_file(path):\n\
      \    f = open(path)\n\
      \    text = f.read()\n\
      \    f.close()\n\
      \    return text.isdigit()\n" );
    ( "Script_argv",
      "word = argv[1]\n\
       count = 0\n\
       for ch in word:\n\
      \    if ch.isdigit():\n\
      \        count += 1\n\
       if count < 2:\n\
      \    raise ValueError(\"too few digits\")\n\
       print(count)\n" ) ]

let plan_inputs =
  [ "4111 1111 1111 1111"; "4111111111111112"; "12-34-56"; "abc"; ""; "9" ]

(* Every candidate of the four-type pipeline workload, on its positives
   and the pipeline's final negatives, under the step budget
   [Pipeline.synthesize] gives it — each run once through the VM with
   the driver's scope and compile caches, once through the reference
   runner with a fresh scope — then the synthetic plans above. *)
let test_corpus_parity () =
  failures := [];
  let ran = Hashtbl.create 16 in
  let n_runs = ref 0 in
  let compare_all ?config c inputs =
    Hashtbl.replace ran (plan_name c.Repolib.Candidate.invocation) ();
    List.iter
      (fun input ->
        let off, on = run_both ?config c input in
        incr n_runs;
        compare_runs (Repolib.Candidate.describe c) input off on)
      inputs
  in
  let index = Corpus.search_index () in
  List.iter
    (fun type_id ->
      let ty = Semtypes.Registry.find_exn type_id in
      let query = ty.Semtypes.Registry.name in
      let positives = Semtypes.Registry.positive_examples ~n:20 ~seed:11 ty in
      let outcome =
        Autotype_core.Pipeline.synthesize ~index ~query ~positives ()
      in
      let inputs = positives @ outcome.Autotype_core.Pipeline.negatives in
      let input_len =
        List.fold_left (fun acc s -> max acc (String.length s)) 0 inputs
      in
      let candidates, _ =
        Autotype_core.Pipeline.gather_candidates ~index
          ~config:Autotype_core.Pipeline.default_config ~query
          ~probe:(List.hd positives) ()
      in
      List.iter
        (fun c ->
          compare_all ~config:(Repolib.Driver.config_for ~input_len c) c inputs)
        candidates)
    [ "credit-card"; "ipv4"; "email"; "isbn" ];
  List.iter
    (fun (plan, source) ->
      let repo =
        Repolib.Repo.make ("vm-plans/" ^ plan) ("invocation plan " ^ plan)
          [ { Repolib.Repo.path = "p/main.py"; source } ]
      in
      match
        List.filter
          (fun (c : Repolib.Candidate.t) ->
            plan_name c.Repolib.Candidate.invocation = plan)
          (Repolib.Analyzer.candidates_of_repo repo)
      with
      | [] -> Alcotest.failf "no %s candidate extracted" plan
      | cs -> List.iter (fun c -> compare_all c plan_inputs) cs)
    plan_repos;
  (match !failures with
   | [] -> ()
   | fs ->
     Alcotest.failf "%d divergence(s) over %d runs; first:\n%s"
       (List.length fs) !n_runs
       (List.hd (List.rev fs)));
  Alcotest.(check bool) "ran the whole workload" true (!n_runs >= 50_000);
  Alcotest.(check (list string)) "every invocation plan ran" all_plans
    (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) ran []))

let suite =
  [ Alcotest.test_case "engines agree on 500 fuzzed programs" `Slow
      test_differential;
    Alcotest.test_case "specialized opcodes match the oracle" `Quick
      test_opcodes;
    Alcotest.test_case "wall-clock deadline observes the 256-step cadence"
      `Quick test_deadline_parity;
    Alcotest.test_case "compiled programs are cached per candidate" `Quick
      test_compile_cache;
    Alcotest.test_case "corpus workload and every plan match the oracle" `Slow
      test_corpus_parity ]
