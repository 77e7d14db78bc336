(** Reference runner: a candidate through its invocation plan the way
    {!Repolib.Driver.run_safe} runs it, but on the tree-walking
    evaluator ({!Tree_walk}) and with a freshly loaded module scope on
    every run — no scope reuse, no compile cache.  This is the
    per-run-reload baseline the VM and the driver's scope cache must
    match run for run. *)

open Minilang
module Candidate = Repolib.Candidate
module Driver = Repolib.Driver
module Repo = Repolib.Repo

let infra msg = raise (Driver.Infra_failure msg)

let load ?(skip_file = "") (repo : Repo.t) =
  match Repo.parse_each repo with
  | [], _ -> infra "repository does not parse"
  | progs, _ ->
    Tree_walk.load_module ~config:Driver.default_config
      (List.filter
         (fun (p : Ast.program) -> p.Ast.prog_file <> skip_file)
         progs)

let find_prog (repo : Repo.t) file =
  match Repo.parse_each repo with
  | [], _ -> infra "repository does not parse"
  | progs, _ ->
    (match
       List.find_opt (fun (p : Ast.program) -> p.Ast.prog_file = file) progs
     with
     | Some p -> p
     | None -> infra ("no such file " ^ file))

(* The [Script_var] rewrite: the hard-coded constant becomes the input. *)
let rewrite_script_var ~var (prog : Ast.program) =
  let body =
    List.map
      (function
        | Ast.Assign (Ast.Tvar v, Ast.Str _, pos) when v = var ->
          Ast.Assign (Ast.Tvar v, Ast.Var "__autotype_input__", pos)
        | s -> s)
      prog.Ast.prog_body
  in
  { prog with Ast.prog_body = body }

let invoke_pos = { Ast.file = "<invoke>"; line = 0 }

let run ?(config = Driver.default_config) ?(record_assigns = false)
    ?deadline_ns (c : Candidate.t) (input : string) : Interp.run_result =
  let repo = c.Candidate.repo in
  let traced ?argv ?stdin_line ?virtual_files f =
    Interp.run_traced ~config ~record_assigns ?argv ?stdin_line ?virtual_files
      ?deadline_ns f
  in
  let lookup scope name kind =
    match Value.scope_lookup scope name with
    | Some v -> v
    | None -> infra (Printf.sprintf "%s %s not defined" kind name)
  in
  let call_named ctx scope name args =
    Tree_walk.call_callable ctx (lookup scope name "callable") args
  in
  let script ?argv ?stdin_line ?var path =
    let prog = find_prog repo path in
    let prog =
      match var with Some var -> rewrite_script_var ~var prog | None -> prog
    in
    let scope = load ~skip_file:path repo in
    traced ?argv ?stdin_line (fun ctx ->
        if var <> None then
          Hashtbl.replace scope.Value.vars "__autotype_input__"
            (Value.Vstr input);
        Tree_walk.exec_program ctx scope prog;
        Value.Vnone)
  in
  match c.Candidate.invocation with
  | Candidate.Direct ->
    let scope = load repo in
    traced (fun ctx ->
        call_named ctx scope c.Candidate.func_name [ Value.Vstr input ])
  | Candidate.Split_call (fname, sep, k) ->
    let scope = load repo in
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
    let scope = load repo in
    traced (fun ctx ->
        let cls = lookup scope cls "class" in
        let obj = Tree_walk.call_callable ctx cls [] in
        Tree_walk.call_method ctx obj meth [ Value.Vstr input ] invoke_pos)
  | Candidate.Ctor_then_method (cls, meth) ->
    let scope = load repo in
    traced (fun ctx ->
        let cls = lookup scope cls "class" in
        let obj = Tree_walk.call_callable ctx cls [ Value.Vstr input ] in
        Tree_walk.call_method ctx obj meth [] invoke_pos)
  | Candidate.Via_argv fname ->
    let scope = load repo in
    traced ~argv:[ "prog.py"; input ] (fun ctx -> call_named ctx scope fname [])
  | Candidate.Via_stdin fname ->
    let scope = load repo in
    traced ~stdin_line:input (fun ctx -> call_named ctx scope fname [])
  | Candidate.Via_file fname ->
    let scope = load repo in
    traced ~virtual_files:[ ("input.txt", input) ] (fun ctx ->
        call_named ctx scope fname [ Value.Vstr "input.txt" ])
  | Candidate.Script_var (path, var) -> script ~var path
  | Candidate.Script_argv path -> script ~argv:[ "prog.py"; input ] path
  | Candidate.Script_stdin path -> script ~stdin_line:input path

(** {!run} with infrastructure failures turned into the error outcome
    {!Repolib.Driver.run_safe} reports. *)
let run_safe ?config ?record_assigns ?deadline_ns c input :
    Interp.run_result =
  match run ?config ?record_assigns ?deadline_ns c input with
  | r -> r
  | exception Driver.Infra_failure msg ->
    {
      Interp.outcome = Interp.Errored ("InfraError", msg);
      trace = [ Trace.Exception "InfraError" ];
      steps_used = 0;
      printed = [];
    }
