(** Static analysis of repositories to find candidate functions
    (Section 4.2).

    Like the paper's AST pass over crawled .py files, this walks every
    parsed MiniScript file and enumerates functions that can be invoked
    with one input string under one of the supported invocation plans.
    Functions that later fail to execute on a probe example are weeded
    out by {!Driver.probe}. *)

open Minilang.Ast

(* Does a block (transitively) reference a given variable name? *)
let block_uses_name name (body : block) =
  let rec expr_uses (e : expr) =
    match e with
    | Var n -> n = name
    | Int _ | Float _ | Str _ | Bool _ | None_lit -> false
    | Binop (_, a, b, _) -> expr_uses a || expr_uses b
    | Unop (_, a) -> expr_uses a
    | Call (f, args, _) -> expr_uses f || List.exists expr_uses args
    | Method (o, _, args, _) -> expr_uses o || List.exists expr_uses args
    | Attr (o, n) -> expr_uses o || (n = name && false)
    | Index (a, b, _) -> expr_uses a || expr_uses b
    | Slice (a, lo, hi, _) ->
      expr_uses a
      || (match lo with Some e -> expr_uses e | None -> false)
      || (match hi with Some e -> expr_uses e | None -> false)
    | List_lit es | Tuple_lit es -> List.exists expr_uses es
    | Dict_lit kvs -> List.exists (fun (k, v) -> expr_uses k || expr_uses v) kvs
    | Cond (c, a, b, _) -> expr_uses c || expr_uses a || expr_uses b
  in
  let uses = ref false in
  let check_stmt () s =
    match s with
    | Expr_stmt (e, _) -> if expr_uses e then uses := true
    | Assign (_, e, _) | Aug_assign (_, _, e, _) -> if expr_uses e then uses := true
    | If (arms, _) ->
      List.iter (fun (c, _, _) -> if expr_uses c then uses := true) arms
    | While (c, _, _) -> if expr_uses c then uses := true
    | For (_, e, _, _) -> if expr_uses e then uses := true
    | Return (Some e, _) | Raise (Some e, _) -> if expr_uses e then uses := true
    | Return (None, _) | Raise (None, _) | Try _ | Break _ | Continue _
    | Pass | Func_def _ | Class_def _ | Global _ -> ()
  in
  ignore (fold_stmts check_stmt () body);
  !uses

(* Does the function's body call a given builtin (input/open/argv use)? *)
let body_calls_builtin bname (body : block) =
  let found = ref false in
  let rec expr_scan (e : expr) =
    (match e with
     | Call (Var n, _, _) when n = bname -> found := true
     | Method (Var "sys", "argv", _, _) -> ()
     | _ -> ());
    match e with
    | Binop (_, a, b, _) -> expr_scan a; expr_scan b
    | Unop (_, a) -> expr_scan a
    | Call (f, args, _) -> expr_scan f; List.iter expr_scan args
    | Method (o, _, args, _) -> expr_scan o; List.iter expr_scan args
    | Attr (o, _) -> expr_scan o
    | Index (a, b, _) -> expr_scan a; expr_scan b
    | Slice (a, lo, hi, _) ->
      expr_scan a;
      Option.iter expr_scan lo;
      Option.iter expr_scan hi
    | List_lit es | Tuple_lit es -> List.iter expr_scan es
    | Dict_lit kvs -> List.iter (fun (k, v) -> expr_scan k; expr_scan v) kvs
    | Cond (c, a, b, _) -> expr_scan c; expr_scan a; expr_scan b
    | Var _ | Int _ | Float _ | Str _ | Bool _ | None_lit -> ()
  in
  let scan_stmt () s =
    match s with
    | Expr_stmt (e, _) -> expr_scan e
    | Assign (_, e, _) | Aug_assign (_, _, e, _) -> expr_scan e
    | If (arms, _) -> List.iter (fun (c, _, _) -> expr_scan c) arms
    | While (c, _, _) -> expr_scan c
    | For (_, e, _, _) -> expr_scan e
    | Return (Some e, _) | Raise (Some e, _) -> expr_scan e
    | Return (None, _) | Raise (None, _) | Try _ | Break _ | Continue _
    | Pass | Func_def _ | Class_def _ | Global _ -> ()
  in
  ignore (fold_stmts scan_stmt () body);
  !found

(* Does the function's body pass its (sole) parameter to open()? *)
let body_opens_param pname (body : block) =
  let found = ref false in
  let scan_stmt () s =
    let rec expr_scan (e : expr) =
      (match e with
       | Call (Var "open", Var n :: _, _) when n = pname -> found := true
       | _ -> ());
      match e with
      | Binop (_, a, b, _) -> expr_scan a; expr_scan b
      | Unop (_, a) -> expr_scan a
      | Call (f, args, _) -> expr_scan f; List.iter expr_scan args
      | Method (o, _, args, _) -> expr_scan o; List.iter expr_scan args
      | Attr (o, _) -> expr_scan o
      | Index (a, b, _) -> expr_scan a; expr_scan b
      | Slice (a, lo, hi, _) ->
        expr_scan a; Option.iter expr_scan lo; Option.iter expr_scan hi
      | List_lit es | Tuple_lit es -> List.iter expr_scan es
      | Dict_lit kvs -> List.iter (fun (k, v) -> expr_scan k; expr_scan v) kvs
      | Cond (c, a, b, _) -> expr_scan c; expr_scan a; expr_scan b
      | Var _ | Int _ | Float _ | Str _ | Bool _ | None_lit -> ()
    in
    match s with
    | Expr_stmt (e, _) -> expr_scan e
    | Assign (_, e, _) | Aug_assign (_, _, e, _) -> expr_scan e
    | If (arms, _) -> List.iter (fun (c, _, _) -> expr_scan c) arms
    | While (c, _, _) -> expr_scan c
    | For (_, e, _, _) -> expr_scan e
    | Return (Some e, _) | Raise (Some e, _) -> expr_scan e
    | Return (None, _) | Raise (None, _) | Try _ | Break _ | Continue _
    | Pass | Func_def _ | Class_def _ | Global _ -> ()
  in
  ignore (fold_stmts scan_stmt () body);
  !found

let required_params (f : func) =
  List.filter (fun p -> not (List.mem_assoc p f.defaults)) f.params

(** Extract every candidate from one repository.  Files that fail to
    parse are skipped (counted in [analyzer.files_skipped]); candidates
    from the repository's parsable files are kept, mirroring the paper's
    "execute whatever compiles" behaviour.  A repository where *no* file
    parses still counts as unparseable and yields []. *)
let m_repos_analyzed = Telemetry.counter "analyzer.repos_analyzed"
let m_candidates_found = Telemetry.counter "analyzer.candidates_found"
let m_unparseable = Telemetry.counter "analyzer.unparseable_repos"
let m_files_skipped = Telemetry.counter "analyzer.files_skipped"

let candidates_of_repo (repo : Repo.t) : Candidate.t list =
  Telemetry.incr m_repos_analyzed;
  match Repo.parse_each repo with
  | [], [] -> []
  | [], _skipped ->
    Telemetry.incr ~by:(List.length _skipped) m_files_skipped;
    Telemetry.incr m_unparseable;
    []
  | progs, skipped ->
    if skipped <> [] then
      Telemetry.incr ~by:(List.length skipped) m_files_skipped;
    let acc = ref [] in
    let add file func_name invocation doc_text =
      acc :=
        { Candidate.repo; file; func_name; invocation; doc_text } :: !acc
    in
    List.iter
      (fun (prog : program) ->
        let file = prog.prog_file in
        let top_level_script_stmts = ref [] in
        List.iter
          (fun stmt ->
            match stmt with
            | Func_def f ->
              let req = required_params f in
              let doc = f.fname in
              (match req with
               | [ p ] ->
                 if body_opens_param p f.body then
                   add file f.fname (Candidate.Via_file f.fname) doc
                 else begin
                   add file f.fname Candidate.Direct doc
                 end
               | [] when f.params = [] || List.length f.defaults = List.length f.params ->
                 if block_uses_name "argv" f.body then
                   add file f.fname (Candidate.Via_argv f.fname) doc
                 else if body_calls_builtin "input" f.body then
                   add file f.fname (Candidate.Via_stdin f.fname) doc
               | [ _; _ ] ->
                 add file f.fname (Candidate.Split_call (f.fname, ',', 2)) doc;
                 add file f.fname (Candidate.Split_call (f.fname, ' ', 2)) doc
               | [ _; _; _ ] ->
                 add file f.fname (Candidate.Split_call (f.fname, ',', 3)) doc
               | _ -> ())
            | Class_def c ->
              let ctor = List.find_opt (fun m -> m.fname = "__init__") c.methods in
              let ctor_req =
                match ctor with
                | None -> []
                | Some init ->
                  (match required_params init with
                   | _self :: rest -> rest
                   | [] -> [])
              in
              List.iter
                (fun m ->
                  if m.fname <> "__init__" then
                    let mreq =
                      match required_params m with
                      | _self :: rest -> rest
                      | [] -> []
                    in
                    let doc = c.cname ^ "." ^ m.fname in
                    match (ctor_req, mreq) with
                    | [], [ _ ] ->
                      add file (c.cname ^ "." ^ m.fname)
                        (Candidate.Class_then_method (c.cname, m.fname))
                        doc
                    | [ _ ], [] ->
                      add file (c.cname ^ "." ^ m.fname)
                        (Candidate.Ctor_then_method (c.cname, m.fname))
                        doc
                    | _ -> ())
                c.methods
            | Assign (Tvar var, Str _, _) ->
              (* Hard-coded constant at script level: each such assignment
                 becomes a candidate (Appendix D.1, Listing 3). *)
              add file
                (Printf.sprintf "<script:%s#%s>" file var)
                (Candidate.Script_var (file, var))
                var
            | Expr_stmt _ | Assign _ | Aug_assign _ | If _ | While _
            | For _ | Return _ | Raise _ | Try _ | Break _ | Continue _
            | Pass | Global _ ->
              top_level_script_stmts := stmt :: !top_level_script_stmts)
          prog.prog_body;
        (* Script files with real top-level logic that read argv or
           input() can be run whole, feeding the example through those
           channels (Appendix D.1). *)
        let script_stmts = List.rev !top_level_script_stmts in
        if script_stmts <> [] then begin
          if block_uses_name "argv" script_stmts then
            add file
              (Printf.sprintf "<script:%s#argv>" file)
              (Candidate.Script_argv file) "main script argv";
          if body_calls_builtin "input" script_stmts then
            add file
              (Printf.sprintf "<script:%s#stdin>" file)
              (Candidate.Script_stdin file) "main script stdin"
        end)
      progs;
    Telemetry.incr ~by:(List.length !acc) m_candidates_found;
    List.rev !acc

(* ------------------------------------------------------------------ *)
(* Static pre-trace verdicts (lib/staticcheck wiring)                  *)
(* ------------------------------------------------------------------ *)

type verdict = {
  rankable : bool;
      (** false = input provably cannot reach any branch condition,
          return value, or raise under this invocation plan, so the
          candidate's trace is input-independent and it can never rank *)
  budget_hint : int option;
      (** a smaller [max_steps] for candidates whose entry function is a
          proven constant-condition spin loop *)
}

let repo_key (r : Repo.t) = (r.Repo.repo_name, Hashtbl.hash r.Repo.files)

(* Taint analyses are memoized per (repository, input-channel config):
   every candidate of a repo under the same invocation channel shares
   one call-graph fixpoint.  Same locking discipline as the parse
   cache: analysis runs outside the lock, first insert wins. *)
let taint_cache : (string * int * string, Staticcheck.Taint.t) Hashtbl.t =
  Hashtbl.create 64

let taint_lock = Mutex.create ()

let taint_for (repo : Repo.t) ~(channel : Staticcheck.Taint.channel)
    ?global_source () : Staticcheck.Taint.t =
  let tag =
    match (channel, global_source) with
    | Staticcheck.Taint.Chan_none, None -> "none"
    | Staticcheck.Taint.Chan_none, Some v -> "var:" ^ v
    | Staticcheck.Taint.Chan_stdin, _ -> "stdin"
    | Staticcheck.Taint.Chan_argv, _ -> "argv"
    | Staticcheck.Taint.Chan_file, _ -> "file"
  in
  let name, h = repo_key repo in
  let key = (name, h, tag) in
  Mutex.lock taint_lock;
  match Hashtbl.find_opt taint_cache key with
  | Some t ->
    Mutex.unlock taint_lock;
    t
  | None ->
    Mutex.unlock taint_lock;
    let progs, _ = Repo.parse_each repo in
    let env = Staticcheck.Env.build progs in
    let t = Staticcheck.Taint.analyze ?global_source ~channel env progs in
    Mutex.lock taint_lock;
    if not (Hashtbl.mem taint_cache key) then Hashtbl.add taint_cache key t;
    Mutex.unlock taint_lock;
    t

(* The entry function's AST, for loop-budget inference.  Candidates are
   extracted per file, so prefer the candidate's own file and fall back
   to any file (Driver.find_prog resolves names repo-wide too). *)
let find_func (repo : Repo.t) ~file name : func option =
  let progs, _ = Repo.parse_each repo in
  let in_prog (p : program) =
    List.find_map
      (function Func_def f when f.fname = name -> Some f | _ -> None)
      p.prog_body
  in
  match List.find_opt (fun (p : program) -> p.prog_file = file) progs with
  | Some p ->
    (match in_prog p with
     | Some f -> Some f
     | None -> List.find_map in_prog progs)
  | None -> List.find_map in_prog progs

let verdict_cache : (string * int, verdict) Hashtbl.t = Hashtbl.create 256
let verdict_lock = Mutex.create ()

let compute_verdict (c : Candidate.t) : verdict =
  let repo = c.Candidate.repo in
  let hint name =
    Option.bind (find_func repo ~file:c.Candidate.file name)
      Staticcheck.Loops.budget_hint
  in
  match c.Candidate.invocation with
  | Candidate.Direct ->
    let t = taint_for repo ~channel:Staticcheck.Taint.Chan_none () in
    {
      rankable =
        Staticcheck.Taint.func_rankable t ~tainted_args:true
          c.Candidate.func_name;
      budget_hint = hint c.Candidate.func_name;
    }
  | Candidate.Split_call (fname, _, _) ->
    (* The driver itself raises ValueError when the input does not
       split into the expected arity — an input-dependent traced event
       that happens before the function runs, so a Split_call candidate
       can rank even when the function ignores its arguments.  Never
       prunable. *)
    { rankable = true; budget_hint = hint fname }
  | Candidate.Class_then_method (cls, meth) ->
    let t = taint_for repo ~channel:Staticcheck.Taint.Chan_none () in
    {
      rankable = Staticcheck.Taint.method_rankable t ~cls ~meth;
      budget_hint = None;
    }
  | Candidate.Ctor_then_method (cls, meth) ->
    let t = taint_for repo ~channel:Staticcheck.Taint.Chan_none () in
    {
      rankable = Staticcheck.Taint.ctor_method_rankable t ~cls ~meth;
      budget_hint = None;
    }
  | Candidate.Via_argv fname ->
    let t = taint_for repo ~channel:Staticcheck.Taint.Chan_argv () in
    {
      rankable = Staticcheck.Taint.func_rankable t ~tainted_args:false fname;
      budget_hint = hint fname;
    }
  | Candidate.Via_stdin fname ->
    let t = taint_for repo ~channel:Staticcheck.Taint.Chan_stdin () in
    {
      rankable = Staticcheck.Taint.func_rankable t ~tainted_args:false fname;
      budget_hint = hint fname;
    }
  | Candidate.Via_file fname ->
    let t = taint_for repo ~channel:Staticcheck.Taint.Chan_file () in
    {
      (* The file *path* argument is untainted; the content read back
         through it is the input. *)
      rankable = Staticcheck.Taint.func_rankable t ~tainted_args:false fname;
      budget_hint = hint fname;
    }
  | Candidate.Script_var (path, var) ->
    let t =
      taint_for repo ~channel:Staticcheck.Taint.Chan_none ~global_source:var ()
    in
    { rankable = Staticcheck.Taint.script_rankable t path; budget_hint = None }
  | Candidate.Script_argv path ->
    let t = taint_for repo ~channel:Staticcheck.Taint.Chan_argv () in
    { rankable = Staticcheck.Taint.script_rankable t path; budget_hint = None }
  | Candidate.Script_stdin path ->
    let t = taint_for repo ~channel:Staticcheck.Taint.Chan_stdin () in
    { rankable = Staticcheck.Taint.script_rankable t path; budget_hint = None }

let verdict (c : Candidate.t) : verdict =
  (* Candidate.key is unique within a repo snapshot; add the content
     hash so test repos reusing names do not collide. *)
  let key = (Candidate.key c, Hashtbl.hash c.Candidate.repo.Repo.files) in
  Mutex.lock verdict_lock;
  match Hashtbl.find_opt verdict_cache key with
  | Some v ->
    Mutex.unlock verdict_lock;
    v
  | None ->
    Mutex.unlock verdict_lock;
    let v = compute_verdict c in
    Mutex.lock verdict_lock;
    if not (Hashtbl.mem verdict_cache key) then Hashtbl.add verdict_cache key v;
    Mutex.unlock verdict_lock;
    v

(* ------------------------------------------------------------------ *)
(* Abstract-interpretation facts (lib/absint wiring)                   *)
(* ------------------------------------------------------------------ *)

module StrSet = Staticcheck.Env.StrSet

let rec target_binds name = function
  | Tvar n -> n = name
  | Ttuple ts -> List.exists (target_binds name) ts
  | Tindex _ | Tattr _ -> false

(* The absint proofs tie a candidate's AST to the function the driver
   will invoke at runtime by *name*.  That link is only sound when the
   name is bound exactly once across the repository: one top-level
   [def] (in any file's top-level control flow), no other top-level
   rebinding (assignment, for-target, class, try-binder), and no
   [global] declaration of it anywhere that could rebind the module
   slot from inside a call.  Anything ambiguous → [None]. *)
let unique_toplevel_func (progs : program list) name : func option =
  let defs = ref [] and rebinds = ref 0 in
  let rec scan_top stmts =
    List.iter
      (fun s ->
        (match s with
         | Func_def f -> if f.fname = name then defs := f :: !defs
         | Class_def c -> if c.cname = name then incr rebinds
         | Assign (t, _, _) | Aug_assign (t, _, _, _) ->
           if target_binds name t then incr rebinds
         | For (t, _, _, _) -> if target_binds name t then incr rebinds
         | Global ns -> if List.mem name ns then incr rebinds
         | Try (_, handlers, _) ->
           List.iter
             (fun h ->
               let binds =
                 (match h.h_bind with Some b -> b = name | None -> false)
                 || (match h.h_filter with
                     | Some f
                       when not
                              (List.mem f
                                 Minilang.Interp.known_exception_kinds) ->
                       f = name
                     | _ -> false)
               in
               if binds then incr rebinds)
             handlers
         | _ -> ());
        match s with
        | If (arms, els) ->
          List.iter (fun (_, _, b) -> scan_top b) arms;
          Option.iter scan_top els
        | While (_, _, b) | For (_, _, b, _) -> scan_top b
        | Try (b, handlers, fin) ->
          scan_top b;
          List.iter (fun h -> scan_top h.h_body) handlers;
          Option.iter scan_top fin
        | _ -> ())
      stmts
  in
  List.iter (fun (p : program) -> scan_top p.prog_body) progs;
  let global_rebind = ref false in
  List.iter
    (fun (p : program) ->
      ignore
        (fold_stmts
           (fun () s ->
             match s with
             | Global ns when List.mem name ns -> global_rebind := true
             | _ -> ())
           () p.prog_body))
    progs;
  match !defs with
  | [ f ] when !rebinds = 0 && not !global_rebind -> Some f
  | _ -> None

let absint_cache : (string * int, Absint.Domain.facts) Hashtbl.t =
  Hashtbl.create 256

let absint_lock = Mutex.create ()

let compute_absint (c : Candidate.t) : Absint.Domain.facts =
  match c.Candidate.invocation with
  | Candidate.Direct -> (
    let progs, _ = Repo.parse_each c.Candidate.repo in
    match unique_toplevel_func progs c.Candidate.func_name with
    | Some f ->
      let env = Staticcheck.Env.build progs in
      let module_bindings =
        Hashtbl.fold
          (fun k _ acc -> StrSet.add k acc)
          env.Staticcheck.Env.funcs
          (Hashtbl.fold
             (fun k _ acc -> StrSet.add k acc)
             env.Staticcheck.Env.classes env.Staticcheck.Env.module_vars)
      in
      let lookup n = unique_toplevel_func progs n in
      Absint.Analyze.facts ~module_bindings ~lookup f
    | None -> Absint.Domain.unknown_facts)
  | _ ->
    (* Only the Direct plan feeds the input straight to the entry
       function; other plans add machinery the analyses don't model. *)
    Absint.Domain.unknown_facts

let absint_facts (c : Candidate.t) : Absint.Domain.facts =
  let key = (Candidate.key c, Hashtbl.hash c.Candidate.repo.Repo.files) in
  Mutex.lock absint_lock;
  match Hashtbl.find_opt absint_cache key with
  | Some v ->
    Mutex.unlock absint_lock;
    v
  | None ->
    Mutex.unlock absint_lock;
    let v = compute_absint c in
    Mutex.lock absint_lock;
    if not (Hashtbl.mem absint_cache key) then Hashtbl.add absint_cache key v;
    Mutex.unlock absint_lock;
    v

(* ------------------------------------------------------------------ *)
(* Repository lint                                                     *)
(* ------------------------------------------------------------------ *)

let diagnostics_cache : (string * int, Staticcheck.Diag.t list) Hashtbl.t =
  Hashtbl.create 64

let diagnostics_lock = Mutex.create ()

let repo_diagnostics (repo : Repo.t) : Staticcheck.Diag.t list =
  let key = repo_key repo in
  Mutex.lock diagnostics_lock;
  match Hashtbl.find_opt diagnostics_cache key with
  | Some ds ->
    Mutex.unlock diagnostics_lock;
    ds
  | None ->
    Mutex.unlock diagnostics_lock;
    let progs, skipped = Repo.parse_each repo in
    let parse_diags =
      List.map
        (fun (file, line, msg) ->
          Staticcheck.Check.parse_error_diag ~file ~line msg)
        skipped
    in
    let ds =
      List.sort Staticcheck.Diag.compare
        (parse_diags @ Staticcheck.Check.check_programs progs)
    in
    Mutex.lock diagnostics_lock;
    if not (Hashtbl.mem diagnostics_cache key) then
      Hashtbl.add diagnostics_cache key ds;
    Mutex.unlock diagnostics_lock;
    ds
