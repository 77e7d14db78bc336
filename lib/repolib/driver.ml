(** Execution driver: run a candidate function on one input string under
    full tracing and sandbox limits (Sections 4.2 and 5.1).

    No run can see state a previous run left behind — the equivalent of
    the paper running each instrumented function in its own process:
    each run gets a freshly loaded module scope, unless the scope is
    provably inert and can be reused (see the scope cache below). *)

open Minilang

type outcome = Interp.outcome =
  | Finished of Value.t
  | Errored of string * string
  | Hit_limit of string
  | Deadline_exceeded of string

let default_config = { Interp.max_steps = 200_000; max_call_depth = 48 }

let invoke_pos = { Ast.file = "<invoke>"; line = 0 }

exception Infra_failure of string
(** The invocation machinery itself failed (callable not defined, etc.),
    as opposed to the function failing on the input. *)

let m_runs = Telemetry.counter "driver.runs"
let m_infra_failures = Telemetry.counter "driver.infra_failures"
let m_probes = Telemetry.counter "driver.probes"
let m_rejected = Telemetry.counter "driver.rejected_unexecutable"
let m_scope_loads = Telemetry.counter "driver.scope_loads"
let m_scope_cache_hits = Telemetry.counter "driver.scope_cache_hits"

let rewrite_script_var ~var (prog : Ast.program) : Ast.program =
  let body =
    List.map
      (fun stmt ->
        match stmt with
        | Ast.Assign (Ast.Tvar v, Ast.Str _, pos) when v = var ->
          Ast.Assign (Ast.Tvar v, Ast.Var "__autotype_input__", pos)
        | s -> s)
      prog.Ast.prog_body
  in
  { prog with Ast.prog_body = body }

(* [Script_var] runs execute the rewritten script.  Rewriting once per
   (parsed program, variable) keeps the rewrite physically the same
   program on every run, so {!Compile.program}'s identity-keyed cache
   compiles it once instead of once per run.  Keyed by repo, file and
   variable, validated by physical identity of the parsed program (a
   re-parse misses and rewrites again); per-domain like every cache
   the tracing pool touches. *)
let script_var_cache :
    ((string * string * string, Ast.program * Ast.program) Hashtbl.t)
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let script_var_program (repo : Repo.t) ~var (prog : Ast.program) =
  let tbl = Domain.DLS.get script_var_cache in
  let key = (repo.Repo.repo_name, prog.Ast.prog_file, var) in
  match Hashtbl.find_opt tbl key with
  | Some (parsed, rewritten) when parsed == prog -> rewritten
  | _ ->
    let rewritten = rewrite_script_var ~var prog in
    Hashtbl.replace tbl key (prog, rewritten);
    rewritten

(* --- Loaded-scope reuse ------------------------------------------- *)

(* Re-loading a module scope on every run keeps state from leaking
   between examples, but for most corpus repositories the loaded scope
   is provably inert: no [global] statement anywhere (so calls can
   never write into module scope) and every module-level value is
   deeply immutable (so calls can never mutate state reachable from
   it).  Such scopes are safe to reuse across runs — observations are
   identical to a fresh load because nothing a run does is visible in
   the scope afterwards.  The test suite's reference runner reloads on
   every run, and the corpus parity test holds cached-scope runs equal
   to it.  Script invocations (which execute INTO the scope) always
   reload.  Per-domain table: scopes are mutable structures and must
   not be shared across tracing domains. *)

let rec immutable_value (v : Value.t) =
  match v with
  | Value.Vint _ | Value.Vfloat _ | Value.Vbool _ | Value.Vstr _
  | Value.Vnone | Value.Vbuiltin _ | Value.Vfun _ | Value.Vclass _ ->
    true
  | Value.Vtuple vs -> List.for_all immutable_value vs
  | Value.Vlist _ | Value.Vdict _ | Value.Vobj _ | Value.Vbound _ -> false

let scope_reusable (progs : Ast.program list) (scope : Value.scope) =
  let has_global (p : Ast.program) =
    Ast.fold_stmts
      (fun acc s -> acc || match s with Ast.Global _ -> true | _ -> false)
      false p.Ast.prog_body
  in
  (not (List.exists has_global progs))
  && Hashtbl.fold
       (fun _ v acc -> acc && immutable_value v)
       scope.Value.vars true

type scope_entry = Reusable of Value.scope | Reload

(* Keyed by repository identity ({!Repo.Tbl}): a hit costs one short
   hash and a table probe — no parse-cache mutex, no program
   filtering. *)
let scope_cache : ((unit, scope_entry) Repo.Tbl.t) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Repo.Tbl.create 32)

(* Load every file of the repo but [skip_file] into a fresh scope,
   untraced.  Load-time errors in individual files are tolerated,
   mirroring the paper's "execute whatever compiles" behaviour. *)
let load_fresh ?(skip_file = "") (repo : Repo.t) =
  match Repo.parse_each repo with
  | [], _ -> None
  | progs, _skipped ->
    let progs =
      List.filter (fun (p : Ast.program) -> p.Ast.prog_file <> skip_file) progs
    in
    Telemetry.incr m_scope_loads;
    let scope, _errors = Interp.load_module ~config:default_config progs in
    Some (progs, scope)

let load_scope ?(skip_file = "") (repo : Repo.t) : Value.scope option =
  if skip_file <> "" then Option.map snd (load_fresh ~skip_file repo)
  else
    let tbl = Domain.DLS.get scope_cache in
    match Repo.Tbl.find_opt tbl repo () with
    | Some (Reusable scope) ->
      Telemetry.incr m_scope_cache_hits;
      Some scope
    | Some Reload -> Option.map snd (load_fresh repo)
    | None ->
      Option.map
        (fun (progs, scope) ->
          Repo.Tbl.replace tbl repo ()
            (if scope_reusable progs scope then Reusable scope else Reload);
          scope)
        (load_fresh repo)

let run ?(config = default_config) ?(record_assigns = false) ?deadline_ns
    (c : Candidate.t) (input : string) : Interp.run_result =
  Telemetry.incr m_runs;
  let repo = c.Candidate.repo in
  let fail_infra msg = raise (Infra_failure msg) in
  let find_prog file =
    match Repo.parse_each repo with
    | [], _ -> fail_infra "repository does not parse"
    | progs, _ ->
      (match
         List.find_opt (fun (p : Ast.program) -> p.Ast.prog_file = file) progs
       with
       | Some p -> p
       | None -> fail_infra ("no such file " ^ file))
  in
  let load ?skip_file () =
    match load_scope ?skip_file repo with
    | Some scope -> scope
    | None -> fail_infra "repository does not parse"
  in
  let traced ?argv ?stdin_line ?virtual_files f =
    Interp.run_traced ~config ~record_assigns ?argv ?stdin_line ?virtual_files
      ?deadline_ns f
  in
  let lookup scope name kind =
    match Value.scope_lookup scope name with
    | Some v -> v
    | None -> fail_infra (Printf.sprintf "%s %s not defined" kind name)
  in
  let call_named ctx scope name args =
    Interp.call_callable ctx (lookup scope name "callable") args
  in
  (* A script plan looks its program up before it loads the scope. *)
  let script ?argv ?stdin_line ?var path =
    let prog = find_prog path in
    let prog =
      match var with
      | Some var -> script_var_program repo ~var prog
      | None -> prog
    in
    let scope = load ~skip_file:path () in
    traced ?argv ?stdin_line (fun ctx ->
        if var <> None then
          Hashtbl.replace scope.Value.vars "__autotype_input__"
            (Value.Vstr input);
        Interp.exec_program ctx scope prog;
        Value.Vnone)
  in
  match c.Candidate.invocation with
  | Candidate.Direct ->
    let scope = load () in
    traced (fun ctx ->
        call_named ctx scope c.Candidate.func_name [ Value.Vstr input ])
  | Candidate.Split_call (fname, sep, k) ->
    let scope = load () in
    traced (fun ctx ->
        let parts =
          String.split_on_char sep input
          |> List.map String.trim
          |> List.filter (fun p -> p <> "")
        in
        if List.length parts <> k then
          Value.raise_error "ValueError"
            (Printf.sprintf "expected %d components" k)
        else
          call_named ctx scope fname (List.map (fun p -> Value.Vstr p) parts))
  | Candidate.Class_then_method (cls, meth) ->
    let scope = load () in
    traced (fun ctx ->
        let cls = lookup scope cls "class" in
        let obj = Interp.call_callable ctx cls [] in
        Interp.call_method ctx obj meth [ Value.Vstr input ] invoke_pos)
  | Candidate.Ctor_then_method (cls, meth) ->
    let scope = load () in
    traced (fun ctx ->
        let cls = lookup scope cls "class" in
        let obj = Interp.call_callable ctx cls [ Value.Vstr input ] in
        Interp.call_method ctx obj meth [] invoke_pos)
  | Candidate.Via_argv fname ->
    let scope = load () in
    traced ~argv:[ "prog.py"; input ] (fun ctx -> call_named ctx scope fname [])
  | Candidate.Via_stdin fname ->
    let scope = load () in
    traced ~stdin_line:input (fun ctx -> call_named ctx scope fname [])
  | Candidate.Via_file fname ->
    let scope = load () in
    traced ~virtual_files:[ ("input.txt", input) ] (fun ctx ->
        call_named ctx scope fname [ Value.Vstr "input.txt" ])
  | Candidate.Script_var (path, var) -> script ~var path
  | Candidate.Script_argv path -> script ~argv:[ "prog.py"; input ] path
  | Candidate.Script_stdin path -> script ~stdin_line:input path

(** Try the candidate on one probe input; reject candidates whose
    invocation machinery does not even reach the function (the paper's
    "compilable and executable" filter). *)
let executable (c : Candidate.t) ~probe : bool =
  Telemetry.incr m_probes;
  match run c probe with
  | _result -> true
  | exception Infra_failure _ ->
    Telemetry.incr m_rejected;
    false

(** Apply a static step-budget hint to a config.  Hints are clamped to
    at least 1: a hint of 0 (or less) would pass the [budget <
    max_steps] guard and yield a config under which [tick] trips on the
    very first step — every run would misreport as [Hit_limit] before
    executing anything. *)
let config_with_hint (config : Interp.config) (hint : int option) :
    Interp.config =
  match hint with
  | Some budget when budget < config.Interp.max_steps ->
    { config with Interp.max_steps = max 1 budget }
  | Some _ | None -> config

(** Interpreter config for a candidate, shrinking [max_steps] using
    every static proof available:
    - the loop pass's spin hint ({!Analyzer.verdict}): the entry
      function provably reaches a constant-condition event-free loop,
      so any budget that covers the prefix traces identically;
    - the abstract interpreter's bound ({!Analyzer.absint_facts}): a
      proven [a·len + b] termination bound (usable when [input_len] is
      supplied) or a precise spin-prefix cost.

    The two hints can disagree — a candidate can be both a proven spin
    and have a tighter absint prefix cost, and a stale spin hint could
    otherwise override a proven termination bound.  The effective
    [max_steps] is defined as the *minimum* of the available hints
    (each is individually sound as an upper-requirement, so their min
    is too), clamped to at least 1 by {!config_with_hint}. *)
let config_for ?(config = default_config) ?input_len (c : Candidate.t) :
    Interp.config =
  let spin = (Analyzer.verdict c).Analyzer.budget_hint in
  let proved =
    Absint.Analyze.budget_hint ?input_len
      (Analyzer.absint_facts c).Absint.Domain.bound
  in
  let combined =
    match (spin, proved) with
    | Some a, Some b -> Some (min a b)
    | (Some _ as h), None | None, (Some _ as h) -> h
    | None, None -> None
  in
  config_with_hint config combined

(** Convenience used throughout the pipeline: run, and turn any
    exception the sandbox does not answer itself — an infrastructure
    failure, or a fault in the runtime — into a counted [InfraError]
    outcome with a flight event. *)
let run_safe ?config ?record_assigns ?deadline_ns c input :
    Interp.run_result =
  let infra msg =
    Telemetry.incr m_infra_failures;
    Telemetry.Flight.record ~kind:"infra_failure" msg;
    {
      Interp.outcome = Errored ("InfraError", msg);
      trace = [ Minilang.Trace.Exception "InfraError" ];
      steps_used = 0;
      printed = [];
    }
  in
  match run ?config ?record_assigns ?deadline_ns c input with
  | r -> r
  | exception Infra_failure msg -> infra msg
  | exception Out_of_memory -> raise Out_of_memory
  | exception e -> infra (Printexc.to_string e)
