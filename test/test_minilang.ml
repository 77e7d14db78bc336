(** Unit tests for the MiniScript language substrate: lexer, parser,
    interpreter semantics, tracing and sandboxing. *)

open Minilang

let run_expr ?(setup = "") expr =
  let src = setup ^ "\nresult = " ^ expr ^ "\n" in
  let prog = Parser.parse ~file:"test.py" src in
  let scope, errs = Interp.load_module [ prog ] in
  (match errs with
   | [] -> ()
   | (_, e) :: _ -> Alcotest.failf "load error: %s" e);
  match Value.scope_lookup scope "result" with
  | Some v -> v
  | None -> Alcotest.fail "result not bound"

let check_expr ?setup name expected expr =
  let v = run_expr ?setup expr in
  Alcotest.(check string) name expected (Value.to_display_string v)

let run_function src fname args =
  let prog = Parser.parse ~file:"test.py" src in
  let scope, _ = Interp.load_module [ prog ] in
  let f = Option.get (Value.scope_lookup scope fname) in
  Interp.run_traced (fun ctx ->
      Interp.call_callable ctx f (List.map (fun s -> Value.Vstr s) args))

let test_arithmetic () =
  check_expr "add" "7" "3 + 4";
  check_expr "precedence" "14" "2 + 3 * 4";
  check_expr "floordiv" "3" "10 // 3";
  check_expr "neg floordiv" "-4" "-10 // 3";
  check_expr "mod" "1" "10 % 3";
  check_expr "python mod sign" "2" "-1 % 3";
  check_expr "pow" "1024" "2 ** 10";
  check_expr "float div" "2.5" "5 / 2";
  check_expr "xor" "6" "5 ^ 3";
  check_expr "shift" "40" "5 << 3";
  check_expr "unary minus" "-5" "-(2 + 3)"

let test_strings () =
  check_expr "concat" "ab" "\"a\" + \"b\"";
  check_expr "repeat" "ababab" "\"ab\" * 3";
  check_expr "index" "b" "\"abc\"[1]";
  check_expr "neg index" "c" "\"abc\"[-1]";
  check_expr "slice" "bc" "\"abcd\"[1:3]";
  check_expr "slice open" "cd" "\"abcd\"[2:]";
  check_expr "slice neg" "ab" "\"abcd\"[:-2]";
  check_expr "upper" "ABC" "\"abc\".upper()";
  check_expr "strip" "x" "\"  x \".strip()";
  check_expr "split len" "3" "len(\"a,b,c\".split(\",\"))";
  check_expr "replace" "xbc" "\"abc\".replace(\"a\", \"x\")";
  check_expr "find" "1" "\"abc\".find(\"bc\")";
  check_expr "find missing" "-1" "\"abc\".find(\"z\")";
  check_expr "startswith" "True" "\"abc\".startswith(\"ab\")";
  check_expr "isdigit" "True" "\"123\".isdigit()";
  check_expr "isdigit empty" "False" "\"\".isdigit()";
  check_expr "join" "a-b" "\"-\".join([\"a\", \"b\"])";
  check_expr "in" "True" "\"bc\" in \"abcd\"";
  check_expr "zfill" "007" "\"7\".zfill(3)";
  check_expr "count" "2" "\"abab\".count(\"ab\")";
  check_expr "ord" "65" "ord(\"A\")";
  check_expr "chr" "z" "chr(122)";
  check_expr "int parse" "42" "int(\" 42 \")";
  check_expr "int base16" "255" "int(\"ff\", 16)";
  check_expr "str of int" "42" "str(42)"

let test_collections () =
  check_expr "list literal" "3" "len([1, 2, 3])";
  check_expr "list index" "2" "[1, 2, 3][1]";
  check_expr "list concat" "4" "len([1, 2] + [3, 4])";
  check_expr "list in" "True" "2 in [1, 2, 3]";
  check_expr ~setup:"xs = [1, 2]\nxs.append(3)" "appended" "3" "len(xs)";
  check_expr ~setup:"xs = [3, 1, 2]\nxs.sort()" "sorted" "1" "xs[0]";
  check_expr "dict get" "1" "{\"a\": 1}[\"a\"]";
  check_expr "dict in" "True" "\"a\" in {\"a\": 1}";
  check_expr "dict get default" "9" "{}.get(\"x\", 9)";
  check_expr ~setup:"d = {}\nd[\"k\"] = 5" "dict set" "5" "d[\"k\"]";
  check_expr "dict keys" "1" "len({\"a\": 1}.keys())";
  check_expr "tuple" "2" "(1, 2)[1]";
  check_expr "sum" "6" "sum([1, 2, 3])";
  check_expr "max args" "7" "max(3, 7, 5)";
  check_expr "range" "5" "len(range(5))";
  check_expr "range two args" "3" "len(range(2, 5))";
  check_expr "sorted" "1" "sorted([2, 1, 3])[0]";
  check_expr "reversed string" "cba" "reversed(\"abc\")"

let test_control_flow () =
  let src =
    {|
def classify(n):
    n = int(n)
    if n < 0:
        return "neg"
    elif n == 0:
        return "zero"
    else:
        return "pos"

def loop_sum(s):
    total = 0
    for ch in s:
        if ch == "x":
            continue
        if ch == "!":
            break
        total = total + int(ch)
    return total

def while_count(s):
    i = 0
    while i < len(s):
        i = i + 1
    return i
|}
  in
  let out fname arg =
    match (run_function src fname [ arg ]).Interp.outcome with
    | Interp.Finished v -> Value.to_display_string v
    | Interp.Errored (k, m) -> Printf.sprintf "ERR %s %s" k m
    | Interp.Hit_limit m -> "LIMIT " ^ m
    | Interp.Deadline_exceeded m -> "DEADLINE " ^ m
  in
  Alcotest.(check string) "neg" "neg" (out "classify" "-3");
  Alcotest.(check string) "zero" "zero" (out "classify" "0");
  Alcotest.(check string) "pos" "pos" (out "classify" "17");
  Alcotest.(check string) "continue" "6" (out "loop_sum" "1x2x3");
  Alcotest.(check string) "break" "3" (out "loop_sum" "12!99");
  Alcotest.(check string) "while" "4" (out "while_count" "abcd")

let test_exceptions () =
  let src =
    {|
def risky(s):
    try:
        return int(s)
    except ValueError:
        return -1

def reraise(s):
    try:
        return int(s)
    except KeyError:
        return -1

def with_finally(s):
    log = []
    try:
        v = int(s)
        log.append("ok")
    except ValueError:
        log.append("err")
    finally:
        log.append("done")
    return len(log)

def custom(s):
    if len(s) == 0:
        raise ValueError("empty input")
    return s
|}
  in
  let run fname arg = (run_function src fname [ arg ]).Interp.outcome in
  (match run "risky" "12" with
   | Interp.Finished (Value.Vint 12) -> ()
   | _ -> Alcotest.fail "risky 12");
  (match run "risky" "abc" with
   | Interp.Finished (Value.Vint (-1)) -> ()
   | _ -> Alcotest.fail "ValueError caught");
  (match run "reraise" "abc" with
   | Interp.Errored ("ValueError", _) -> ()
   | _ -> Alcotest.fail "KeyError filter must not catch ValueError");
  (match run "with_finally" "5" with
   | Interp.Finished (Value.Vint 2) -> ()
   | _ -> Alcotest.fail "finally runs");
  (match run "custom" "" with
   | Interp.Errored ("ValueError", msg) ->
     Alcotest.(check string) "message" "empty input" msg
   | _ -> Alcotest.fail "raise ValueError(msg)")

let test_classes () =
  let src =
    {|
class Counter:
    def __init__(self):
        self.total = 0

    def add(self, s):
        self.total = self.total + int(s)
        return self.total

class Box:
    def __init__(self, s):
        self.value = s

    def get(self):
        return self.value
|}
  in
  let prog = Parser.parse ~file:"cls.py" src in
  let scope, _ = Interp.load_module [ prog ] in
  let result =
    Interp.run_traced (fun ctx ->
        let cls = Option.get (Value.scope_lookup scope "Counter") in
        let o = Interp.call_callable ctx cls [] in
        ignore (Interp.call_method ctx o "add" [ Value.Vstr "3" ]
                  { Ast.file = "t"; line = 0 });
        Interp.call_method ctx o "add" [ Value.Vstr "4" ]
          { Ast.file = "t"; line = 0 })
  in
  (match result.Interp.outcome with
   | Interp.Finished (Value.Vint 7) -> ()
   | _ -> Alcotest.fail "stateful method calls");
  let result2 =
    Interp.run_traced (fun ctx ->
        let cls = Option.get (Value.scope_lookup scope "Box") in
        let o = Interp.call_callable ctx cls [ Value.Vstr "hi" ] in
        Interp.call_method ctx o "get" [] { Ast.file = "t"; line = 0 })
  in
  match result2.Interp.outcome with
  | Interp.Finished (Value.Vstr "hi") -> ()
  | _ -> Alcotest.fail "ctor with argument"

let test_tracing () =
  let src =
    {|
def check(s):
    if len(s) > 3:
        return True
    return False
|}
  in
  let r = run_function src "check" [ "abcdef" ] in
  let branches =
    List.filter_map
      (function Trace.Branch (site, taken) -> Some (site.Trace.s_line, taken) | _ -> None)
      r.Interp.trace
  in
  Alcotest.(check (list (pair int bool))) "branch on line 3 taken"
    [ (3, true) ] branches;
  let returns =
    List.filter_map
      (function Trace.Return (_, v) -> Some (Trace.ret_abstract_to_string v) | _ -> None)
      r.Interp.trace
  in
  Alcotest.(check (list string)) "returns True" [ "True" ] returns;
  let r2 = run_function src "check" [ "ab" ] in
  let branches2 =
    List.filter_map
      (function Trace.Branch (_, taken) -> Some taken | _ -> None)
      r2.Interp.trace
  in
  Alcotest.(check (list bool)) "branch not taken" [ false ] branches2

let test_inter_procedural_tracing () =
  let src =
    {|
def helper(s):
    if s.isdigit():
        return 1
    return 0

def outer(s):
    if helper(s) == 1:
        return "num"
    return "other"
|}
  in
  let r = run_function src "outer" [ "42" ] in
  let n_branches =
    List.length
      (List.filter (function Trace.Branch _ -> true | _ -> false) r.Interp.trace)
  in
  (* helper's branch and outer's branch are both recorded. *)
  Alcotest.(check int) "both branches traced" 2 n_branches

let test_sandbox_limits () =
  let src = {|
def spin(s):
    while True:
        s = s + "x"
|} in
  let r =
    let prog = Parser.parse ~file:"spin.py" src in
    let scope, _ = Interp.load_module [ prog ] in
    let f = Option.get (Value.scope_lookup scope "spin") in
    Interp.run_traced
      ~config:{ Interp.max_steps = 5_000; max_call_depth = 16 }
      (fun ctx -> Interp.call_callable ctx f [ Value.Vstr "a" ])
  in
  (match r.Interp.outcome with
   | Interp.Hit_limit _ -> ()
   | _ -> Alcotest.fail "infinite loop must hit the step budget");
  (* The step budget is not catchable by MiniScript try/except. *)
  let src2 =
    {|
def sneaky(s):
    try:
        while True:
            s = s + "x"
    except e:
        return "caught"
|}
  in
  let prog = Parser.parse ~file:"sneaky.py" src2 in
  let scope, _ = Interp.load_module [ prog ] in
  let f = Option.get (Value.scope_lookup scope "sneaky") in
  let r2 =
    Interp.run_traced
      ~config:{ Interp.max_steps = 5_000; max_call_depth = 16 }
      (fun ctx -> Interp.call_callable ctx f [ Value.Vstr "a" ])
  in
  match r2.Interp.outcome with
  | Interp.Hit_limit _ -> ()
  | _ -> Alcotest.fail "sandbox limit must not be catchable"

let test_recursion_limit () =
  let src = {|
def rec(s):
    return rec(s + "x")
|} in
  let prog = Parser.parse ~file:"rec.py" src in
  let scope, _ = Interp.load_module [ prog ] in
  let f = Option.get (Value.scope_lookup scope "rec") in
  let r =
    Interp.run_traced
      ~config:{ Interp.max_steps = 1_000_000; max_call_depth = 20 }
      (fun ctx -> Interp.call_callable ctx f [ Value.Vstr "a" ])
  in
  match r.Interp.outcome with
  | Interp.Hit_limit _ -> ()
  | _ -> Alcotest.fail "deep recursion must hit the call-depth cap"

let test_io_variants () =
  (* input(), sys.argv and open() feed the virtual input. *)
  let src =
    {|
def from_stdin():
    line = input()
    return len(line)

def from_argv():
    return argv[1]

def from_file(path):
    f = open(path)
    content = f.read()
    f.close()
    return content
|}
  in
  let prog = Parser.parse ~file:"io.py" src in
  let scope, _ = Interp.load_module [ prog ] in
  let call ?argv ?stdin_line ?virtual_files fname args =
    let f = Option.get (Value.scope_lookup scope fname) in
    (Interp.run_traced ?argv ?stdin_line ?virtual_files (fun ctx ->
         Interp.call_callable ctx f args)).Interp.outcome
  in
  (match call ~stdin_line:"hello" "from_stdin" [] with
   | Interp.Finished (Value.Vint 5) -> ()
   | _ -> Alcotest.fail "stdin variant");
  (match call ~argv:[ "prog"; "payload" ] "from_argv" [] with
   | Interp.Finished (Value.Vstr "payload") -> ()
   | _ -> Alcotest.fail "argv variant");
  match
    call
      ~virtual_files:[ ("f.txt", "data123") ]
      "from_file"
      [ Value.Vstr "f.txt" ]
  with
  | Interp.Finished (Value.Vstr "data123") -> ()
  | _ -> Alcotest.fail "file variant"

let test_parse_errors () =
  let bad = [ "def f(:\n    pass\n"; "if x\n    pass\n"; "x = (1,,2)\n" ] in
  List.iter
    (fun src ->
      match Parser.parse ~file:"bad.py" src with
      | _ -> Alcotest.failf "expected parse error for %S" src
      | exception Parser.Parse_error _ -> ()
      | exception Lexer.Lex_error _ -> ())
    bad

let test_indentation () =
  (* Nested blocks, blank lines and comments inside suites. *)
  let src =
    {|
def f(s):
    total = 0

    # a comment inside the suite
    for ch in s:
        if ch == "a":
            total = total + 1
        else:
            total = total + 10
    return total
|}
  in
  match (run_function src "f" [ "aba" ]).Interp.outcome with
  | Interp.Finished (Value.Vint 12) -> ()
  | _ -> Alcotest.fail "indentation with comments and blanks"

let run_function_opts ?config ?deadline_ns src fname args =
  let prog = Parser.parse ~file:"test.py" src in
  let scope, _ = Interp.load_module [ prog ] in
  let f = Option.get (Value.scope_lookup scope fname) in
  Interp.run_traced ?config ?deadline_ns (fun ctx ->
      Interp.call_callable ctx f (List.map (fun s -> Value.Vstr s) args))

let show_outcome = function
  | Interp.Finished v -> "FINISHED " ^ Value.to_display_string v
  | Interp.Errored (k, m) -> Printf.sprintf "ERR %s %s" k m
  | Interp.Hit_limit m -> "LIMIT " ^ m
  | Interp.Deadline_exceeded m -> "DEADLINE " ^ m

let loop_src = {|
def f(s):
    n = 0
    while n < 100:
        n = n + 1
    return n
|}

let test_cancellation_uncatchable () =
  (* MiniScript try/except must not swallow a deadline cut: the cut
     lands inside the [try] (the run took steps, so it was not refused
     on entry) and still ends the run. *)
  let src = {|
def f(s):
    try:
        while True:
            pass
    except:
        return "caught"
    return "done"
|}
  in
  let config = { Interp.max_steps = 50_000_000; max_call_depth = 48 } in
  let deadline_ns = Int64.add (Telemetry.now_ns ()) 2_000_000L in
  let r = run_function_opts ~config ~deadline_ns src "f" [ "x" ] in
  (match r.Interp.outcome with
   | Interp.Deadline_exceeded _ -> ()
   | o ->
     Alcotest.fail ("except must not catch a deadline cut, got " ^ show_outcome o));
  Alcotest.(check bool) "cut inside the try" true (r.Interp.steps_used > 0)

let test_deadline_vs_budget () =
  (* A deadline already in the past: Deadline_exceeded, not Hit_limit —
     the time bound and the work bound are distinct outcomes. *)
  let past = Int64.sub (Telemetry.now_ns ()) 1L in
  (match
     (run_function_opts ~deadline_ns:past loop_src "f" [ "x" ]).Interp.outcome
   with
   | Interp.Deadline_exceeded _ -> ()
   | o -> Alcotest.fail ("past deadline must deadline, got " ^ show_outcome o));
  (* A deadline a hair in the future still cuts the loop (via the
     amortized probe), and still reads as a deadline. *)
  let soon = Int64.add (Telemetry.now_ns ()) 1L in
  (match
     (run_function_opts ~deadline_ns:soon loop_src "f" [ "x" ]).Interp.outcome
   with
   | Interp.Deadline_exceeded _ -> ()
   | o -> Alcotest.fail ("1ns deadline must deadline, got " ^ show_outcome o));
  (* Step-budget exhaustion stays Hit_limit even when a (far) deadline
     is also set. *)
  let config = { Interp.default_config with Interp.max_steps = 50 } in
  let far = Int64.add (Telemetry.now_ns ()) 60_000_000_000L in
  (match
     (run_function_opts ~config ~deadline_ns:far loop_src "f" [ "x" ])
       .Interp.outcome
   with
   | Interp.Hit_limit _ -> ()
   | o -> Alcotest.fail ("budget exhaustion must limit, got " ^ show_outcome o));
  (* And a generous budget with no deadline finishes. *)
  match (run_function_opts loop_src "f" [ "x" ]).Interp.outcome with
  | Interp.Finished (Value.Vint 100) -> ()
  | o -> Alcotest.fail ("unbounded run must finish, got " ^ show_outcome o)

let test_fault_injection_hooks () =
  Fun.protect ~finally:(fun () -> Faults.set None) @@ fun () ->
  (* p_kill=1: every run dies with the FaultInjected error outcome. *)
  Faults.set (Some { Faults.default with Faults.p_kill = 1.0 });
  (match (run_function_opts loop_src "f" [ "x" ]).Interp.outcome with
   | Interp.Errored ("FaultInjected", _) -> ()
   | o -> Alcotest.fail ("killed run must error, got " ^ show_outcome o));
  (* A delay injected before the run drives it past its deadline: this
     is the acceptance scenario — an artificially delayed candidate
     yields Deadline_exceeded, not a hang and not budget exhaustion. *)
  Faults.set (Some { Faults.default with Faults.delay_ms = 5.0 });
  let deadline_ns = Int64.add (Telemetry.now_ns ()) 1_000_000L (* 1ms *) in
  (match
     (run_function_opts ~deadline_ns loop_src "f" [ "x" ]).Interp.outcome
   with
   | Interp.Deadline_exceeded _ -> ()
   | o -> Alcotest.fail ("delayed run must deadline, got " ^ show_outcome o));
  (* Injection off: the same run finishes normally. *)
  Faults.set None;
  match (run_function_opts loop_src "f" [ "x" ]).Interp.outcome with
  | Interp.Finished (Value.Vint 100) -> ()
  | o -> Alcotest.fail ("clean run must finish, got " ^ show_outcome o)

(* Names that miss local and module scope resolve through
   [Rt.lookup_fallback], which the test suite's reference evaluator
   shares with the VM, so engine parity cannot catch a change in its
   precedence.  Checked here directly: builtins, then [re] and [sys],
   then [argv], then exception kinds, then [NameError]. *)
let test_name_fallback () =
  let ctx = Interp.create_ctx ~argv:[ "prog.py"; "x" ] (Trace.create_collector ()) in
  let resolves name expected =
    Alcotest.(check string) name expected
      (Value.to_repr_string (Rt.lookup_fallback ctx name))
  in
  List.iter (fun n -> resolves n ("<builtin " ^ n ^ ">")) Interp.builtin_names;
  List.iter
    (fun k -> resolves k ("<builtin exc:" ^ k ^ ">"))
    Interp.known_exception_kinds;
  resolves "re" "<builtin re_module>";
  resolves "sys" "<builtin sys_module>";
  Alcotest.(check bool) "argv is the run's own list" true
    (Rt.lookup_fallback ctx "argv" == ctx.Rt.argv);
  (match Rt.lookup_fallback ctx "no_such_name" with
   | v -> Alcotest.failf "an unknown name resolved to %s" (Value.to_repr_string v)
   | exception Value.Runtime_error (kind, msg) ->
     Alcotest.(check (pair string string)) "an unknown name"
       ("NameError", "name 'no_such_name' is not defined") (kind, msg));
  (* Module scope wins over every fallback. *)
  let shadow = "len = 7\n\ndef f(s):\n    return len\n" in
  (match (run_function shadow "f" [ "abc" ]).Interp.outcome with
   | Interp.Finished (Value.Vint 7) -> ()
   | o -> Alcotest.fail ("a module len must shadow the builtin, got " ^ show_outcome o));
  let construct =
    "def f(s):\n    e = ValueError(\"bad \" + s)\n    raise e\n"
  in
  match (run_function construct "f" [ "x" ]).Interp.outcome with
  | Interp.Errored ("ValueError", "bad x") -> ()
  | o -> Alcotest.fail ("ValueError(...) must construct, got " ^ show_outcome o)

let prop_interp_deterministic =
  QCheck.Test.make ~count:50 ~name:"interpreter runs are deterministic"
    QCheck.(string_of_size (QCheck.Gen.int_bound 20))
    (fun input ->
      let src = {|
def f(s):
    n = 0
    for ch in s:
        if ch.isdigit():
            n = n + 1
    return n
|} in
      let r1 = run_function src "f" [ input ] in
      let r2 = run_function src "f" [ input ] in
      r1.Interp.trace = r2.Interp.trace
      && r1.Interp.outcome = r2.Interp.outcome)

let suite =
  [
    ("arithmetic", `Quick, test_arithmetic);
    ("strings", `Quick, test_strings);
    ("collections", `Quick, test_collections);
    ("control flow", `Quick, test_control_flow);
    ("exceptions", `Quick, test_exceptions);
    ("classes", `Quick, test_classes);
    ("tracing", `Quick, test_tracing);
    ("inter-procedural tracing", `Quick, test_inter_procedural_tracing);
    ("sandbox step budget", `Quick, test_sandbox_limits);
    ("recursion limit", `Quick, test_recursion_limit);
    ("io variants", `Quick, test_io_variants);
    ("parse errors", `Quick, test_parse_errors);
    ("indentation", `Quick, test_indentation);
    ("cancellation uncatchable by try", `Quick, test_cancellation_uncatchable);
    ("deadline vs step budget", `Quick, test_deadline_vs_budget);
    ("fault injection hooks", `Quick, test_fault_injection_hooks);
    ("name fallback precedence", `Quick, test_name_fallback);
    QCheck_alcotest.to_alcotest prop_interp_deterministic;
  ]
