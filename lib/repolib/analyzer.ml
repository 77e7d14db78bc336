(** Static analysis of repositories to find candidate functions
    (Section 4.2).

    Like the paper's AST pass over crawled .py files, this walks every
    parsed MiniScript file and enumerates functions that can be invoked
    with one input string under one of the supported invocation plans.
    Functions that later fail to execute on a probe example are weeded
    out by {!Driver.probe}. *)

open Minilang.Ast

exception Found

(* Does any expression in the block, nested blocks included, satisfy
   [p]?  Each statement's own expressions are scanned; assignment
   targets are not. *)
let block_exists (p : expr -> bool) (body : block) =
  let expr = Staticcheck.Env.iter_expr (fun e -> if p e then raise Found) in
  let stmt () = function
    | Expr_stmt (e, _) | Assign (_, e, _) | Aug_assign (_, _, e, _)
    | While (e, _, _) | For (_, e, _, _)
    | Return (Some e, _) | Raise (Some e, _) ->
      expr e
    | If (arms, _) -> List.iter (fun (c, _, _) -> expr c) arms
    | Return (None, _) | Raise (None, _) | Try _ | Break _ | Continue _
    | Pass | Func_def _ | Class_def _ | Global _ -> ()
  in
  match fold_stmts stmt () body with () -> false | exception Found -> true

let uses_name name = block_exists (function Var n -> n = name | _ -> false)

let calls_builtin name =
  block_exists (function Call (Var n, _, _) -> n = name | _ -> false)

let opens_param name =
  block_exists (function
    | Call (Var "open", Var n :: _, _) -> n = name
    | _ -> false)

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
                 if opens_param p f.body then
                   add file f.fname (Candidate.Via_file f.fname) doc
                 else begin
                   add file f.fname Candidate.Direct doc
                 end
               | [] when f.params = [] || List.length f.defaults = List.length f.params ->
                 if uses_name "argv" f.body then
                   add file f.fname (Candidate.Via_argv f.fname) doc
                 else if calls_builtin "input" f.body then
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
          if uses_name "argv" script_stmts then
            add file
              (Printf.sprintf "<script:%s#argv>" file)
              (Candidate.Script_argv file) "main script argv";
          if calls_builtin "input" script_stmts then
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

(* The analyses below are memoized per repository identity
   ({!Repo.memoized}) in tables the tracing domains share; a
   per-candidate memo keys on the candidate's repository and key. *)
let memoized_candidate m (c : Candidate.t) compute =
  Repo.memoized m c.Candidate.repo (Candidate.key c) compute

(* Taint analyses are memoized per (repository, input-channel config):
   every candidate of a repo under the same invocation channel shares
   one call-graph fixpoint. *)
let taint_memo = Repo.memo ()

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
  Repo.memoized taint_memo repo tag (fun () ->
      let progs, _ = Repo.parse_each repo in
      let env = Staticcheck.Env.build progs in
      Staticcheck.Taint.analyze ?global_source ~channel env progs)

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

let verdict_memo = Repo.memo ()

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
  memoized_candidate verdict_memo c (fun () -> compute_verdict c)

(* ------------------------------------------------------------------ *)
(* Abstract-interpretation facts (lib/absint wiring)                   *)
(* ------------------------------------------------------------------ *)

module StrSet = Staticcheck.Env.StrSet

(* Literal values whose evaluation runs no code and cannot raise. *)
let rec const_expr = function
  | Int _ | Float _ | Str _ | Bool _ | None_lit -> true
  | Unop (Neg, (Int _ | Float _)) -> true
  | Tuple_lit es | List_lit es -> List.for_all const_expr es
  | Dict_lit kvs ->
    List.for_all
      (fun (k, v) ->
        (match k with
         | Int _ | Float _ | Str _ | Bool _ | None_lit -> true
         | _ -> false)
        && const_expr v)
      kvs
  | _ -> false

(** One module-level binding of a name. *)
type binding =
  | Def of func * (int * int) option
      (** a [def]; its (file, statement) index when it sits directly at
          a file's top level rather than inside top-level control flow *)
  | Const of expr * (int * int)
      (** [name = <literal>] directly at a file's top level *)
  | Rebind
      (** any other binding: a class, an assignment, a for-target, a
          try-binder, or a [global] declaration anywhere *)

(* Every module-level binding of every name, over all files in load
   order: top-level statements and the blocks of top-level control
   flow, plus [global] declarations anywhere (they let a call rebind
   the module slot). *)
let scan_bindings (progs : program list) : (string, binding list) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  let add name b =
    Hashtbl.replace tbl name
      (b :: Option.value ~default:[] (Hashtbl.find_opt tbl name))
  in
  let rec rebind_target = function
    | Tvar n -> add n Rebind
    | Ttuple ts -> List.iter rebind_target ts
    | Tindex _ | Tattr _ -> ()
  in
  let rec scan_top fi stmts =
    List.iteri
      (fun si s ->
        let here = Option.map (fun fi -> (fi, si)) fi in
        (match (s, here) with
         | Func_def f, _ -> add f.fname (Def (f, here))
         | Class_def c, _ -> add c.cname Rebind
         | Assign (Tvar n, e, _), Some loc when const_expr e ->
           add n (Const (e, loc))
         | (Assign (t, _, _) | Aug_assign (t, _, _, _) | For (t, _, _, _)), _ ->
           rebind_target t
         | Try (_, handlers, _), _ ->
           List.iter
             (fun h ->
               Option.iter (fun b -> add b Rebind) h.h_bind;
               match h.h_filter with
               | Some f
                 when not (List.mem f Minilang.Interp.known_exception_kinds) ->
                 add f Rebind
               | _ -> ())
             handlers
         | _ -> ());
        match s with
        | If (arms, els) ->
          List.iter (fun (_, _, b) -> scan_top None b) arms;
          Option.iter (scan_top None) els
        | While (_, _, b) | For (_, _, b, _) -> scan_top None b
        | Try (b, handlers, fin) ->
          scan_top None b;
          List.iter (fun h -> scan_top None h.h_body) handlers;
          Option.iter (scan_top None) fin
        | _ -> ())
      stmts
  in
  List.iteri (fun fi (p : program) -> scan_top (Some fi) p.prog_body) progs;
  List.iter
    (fun (p : program) ->
      ignore
        (fold_stmts
           (fun () s ->
             match s with
             | Global ns -> List.iter (fun n -> add n Rebind) ns
             | _ -> ())
           () p.prog_body))
    progs;
  tbl

(* A statement whose execution at module load runs no user code and
   cannot raise, and what it costs in interpreter steps at most (a
   generous per-node bound). *)
let inert_cost (s : stmt) : int option =
  let rec size = function
    | Unop (_, e) -> 1 + size e
    | Tuple_lit es | List_lit es -> List.fold_left (fun n e -> n + size e) 1 es
    | Dict_lit kvs ->
      List.fold_left (fun n (k, v) -> n + size k + size v) 1 kvs
    | _ -> 1
  in
  match s with
  | Pass | Func_def _ | Class_def _ | Expr_stmt (Str _, _) -> Some 4
  | Assign (Tvar _, e, _) when const_expr e -> Some (4 + (4 * size e))
  | _ -> None

(* Module loading runs each file under {!Driver.default_config}'s
   200,000 steps; an inert prefix within this many stays far below. *)
let max_inert_prefix_cost = 50_000

(** What the clone key needs of a repository, computed once per
    repository. *)
type module_info = {
  bindings : (string, binding list) Hashtbl.t;
  safe_len : int array;
      (** per file in load order: how many leading top-level statements
          are inert and fit the step bound, so that loading provably
          reaches the statement after them *)
  load_inert : bool;  (** every top-level statement of every file is *)
}

let compute_module_info (repo : Repo.t) : module_info =
  let progs, _ = Repo.parse_each repo in
  let safe_len (p : program) =
    let rec go n cost = function
      | [] -> n
      | s :: rest ->
        (match inert_cost s with
         | Some c when cost + c <= max_inert_prefix_cost ->
           go (n + 1) (cost + c) rest
         | _ -> n)
    in
    go 0 0 p.prog_body
  in
  let safe_len = Array.of_list (List.map safe_len progs) in
  {
    bindings = scan_bindings progs;
    safe_len;
    load_inert =
      List.for_all2
        (fun n (p : program) -> n = List.length p.prog_body)
        (Array.to_list safe_len) progs;
  }

let module_info_memo = Repo.memo ()

let module_info (repo : Repo.t) : module_info =
  Repo.memoized module_info_memo repo () (fun () -> compute_module_info repo)

(* The absint proofs tie a candidate's AST to the function the driver
   will invoke at runtime by *name*.  That link is only sound when the
   name is bound exactly once across the repository: one top-level
   [def] (in any file's top-level control flow), no other top-level
   rebinding (assignment, for-target, class, try-binder), and no
   [global] declaration of it anywhere that could rebind the module
   slot from inside a call.  Anything ambiguous → [None]. *)
let unique_toplevel_func (m : module_info) name : func option =
  match Hashtbl.find_opt m.bindings name with
  | Some [ Def (f, _) ] -> Some f
  | _ -> None

let compute_absint (c : Candidate.t) : Absint.Domain.facts =
  match c.Candidate.invocation with
  | Candidate.Direct -> (
    let m = module_info c.Candidate.repo in
    match unique_toplevel_func m c.Candidate.func_name with
    | Some f ->
      let progs, _ = Repo.parse_each c.Candidate.repo in
      let env = Staticcheck.Env.build progs in
      let module_bindings =
        Hashtbl.fold
          (fun k _ acc -> StrSet.add k acc)
          env.Staticcheck.Env.funcs
          (Hashtbl.fold
             (fun k _ acc -> StrSet.add k acc)
             env.Staticcheck.Env.classes env.Staticcheck.Env.module_vars)
      in
      let lookup n = unique_toplevel_func m n in
      Absint.Analyze.facts ~module_bindings ~lookup f
    | None -> Absint.Domain.unknown_facts)
  | _ ->
    (* Only the Direct plan feeds the input straight to the entry
       function; other plans add machinery the analyses don't model. *)
    Absint.Domain.unknown_facts

let absint_memo = Repo.memo ()

let absint_facts (c : Candidate.t) : Absint.Domain.facts =
  memoized_candidate absint_memo c (fun () -> compute_absint c)

(* ------------------------------------------------------------------ *)
(* Clone classes (exact trace sharing)                                 *)
(* ------------------------------------------------------------------ *)

type clone = { class_key : string; files : string list }

exception Unresolvable

(* A closure unit: a function the run may call, or a literal constant
   it may read. *)
type unit_ = Fn of func | Cst of string * expr

(* The identifiers a function may read from the module scope, in order
   of first appearance; those of them read other than as the callee of
   a direct call [f(...)]; and whether it binds an exception message to
   a name.  Raises [Unresolvable] on what the key does not model:
   nested [def] and [class] (closures over the frame) and [global]. *)
let fn_reads (f : func) : string list * string list * bool =
  let reads = ref [] and values = ref [] and binds = ref false in
  let read ~call n =
    if not (List.mem n !reads) then reads := n :: !reads;
    if not (call || List.mem n !values) then values := n :: !values
  in
  (* Parameters are always set in the frame; every other name falls
     back to the module scope while its local slot is unset. *)
  let read_body ~call n = if not (List.mem n f.params) then read ~call n in
  let rec walk ~read = function
    | Var n -> read ~call:false n
    | Call (Var n, args, _) ->
      read ~call:true n;
      List.iter (walk ~read) args
    | Call (g, args, _) ->
      walk ~read g;
      List.iter (walk ~read) args
    | Int _ | Float _ | Str _ | Bool _ | None_lit -> ()
    | Binop (_, a, b, _) | Index (a, b, _) ->
      walk ~read a;
      walk ~read b
    | Unop (_, a) | Attr (a, _) -> walk ~read a
    | Method (o, _, args, _) ->
      walk ~read o;
      List.iter (walk ~read) args
    | Slice (a, lo, hi, _) ->
      walk ~read a;
      Option.iter (walk ~read) lo;
      Option.iter (walk ~read) hi
    | List_lit es | Tuple_lit es -> List.iter (walk ~read) es
    | Dict_lit kvs ->
      List.iter
        (fun (k, v) ->
          walk ~read k;
          walk ~read v)
        kvs
    | Cond (c, a, b, _) ->
      walk ~read c;
      walk ~read a;
      walk ~read b
  in
  let expr = walk ~read:read_body in
  let rec target = function
    | Tvar _ -> ()
    | Tindex (a, b) ->
      expr a;
      expr b
    | Tattr (a, _) -> expr a
    | Ttuple ts -> List.iter target ts
  in
  let rec stmt = function
    | Expr_stmt (e, _) -> expr e
    | Assign (t, e, _) ->
      target t;
      expr e
    | Aug_assign (t, _, e, _) ->
      (match t with Tvar n -> read_body ~call:false n | t -> target t);
      expr e
    | If (arms, els) ->
      List.iter
        (fun (c, _, b) ->
          expr c;
          List.iter stmt b)
        arms;
      Option.iter (List.iter stmt) els
    | While (c, _, b) ->
      expr c;
      List.iter stmt b
    | For (t, e, b, _) ->
      target t;
      expr e;
      List.iter stmt b
    | Return (e, _) | Raise (e, _) -> Option.iter expr e
    | Try (b, handlers, fin) ->
      List.iter stmt b;
      List.iter
        (fun h ->
          (match (h.h_bind, h.h_filter) with
           | Some _, _ -> binds := true
           | None, Some k
             when not (List.mem k Minilang.Interp.known_exception_kinds) ->
             binds := true
           | _ -> ());
          List.iter stmt h.h_body)
        handlers;
      Option.iter (List.iter stmt) fin
    | Break _ | Continue _ | Pass -> ()
    | Func_def _ | Class_def _ | Global _ -> raise Unresolvable
  in
  (* Defaults run in the callee frame before every parameter is set, so
     even a parameter's name may reach the module scope there. *)
  List.iter (fun (_, e) -> walk ~read e) f.defaults;
  List.iter stmt f.body;
  (List.rev !reads, !values, !binds)

(* [f] with every identifier renamed by [ident] and every position's
   file renamed by [file]. *)
let rename_func ~ident ~file (f : func) : func =
  let pos (p : pos) = { p with file = file p.file } in
  let rec expr = function
    | (Int _ | Float _ | Str _ | Bool _ | None_lit) as e -> e
    | Var n -> Var (ident n)
    | Binop (op, a, b, p) -> Binop (op, expr a, expr b, pos p)
    | Unop (op, a) -> Unop (op, expr a)
    | Call (g, args, p) -> Call (expr g, List.map expr args, pos p)
    | Method (o, m, args, p) -> Method (expr o, m, List.map expr args, pos p)
    | Attr (o, a) -> Attr (expr o, a)
    | Index (a, b, p) -> Index (expr a, expr b, pos p)
    | Slice (a, lo, hi, p) ->
      Slice (expr a, Option.map expr lo, Option.map expr hi, pos p)
    | List_lit es -> List_lit (List.map expr es)
    | Tuple_lit es -> Tuple_lit (List.map expr es)
    | Dict_lit kvs -> Dict_lit (List.map (fun (k, v) -> (expr k, expr v)) kvs)
    | Cond (c, a, b, p) -> Cond (expr c, expr a, expr b, pos p)
  in
  let rec target = function
    | Tvar n -> Tvar (ident n)
    | Tindex (a, b) -> Tindex (expr a, expr b)
    | Tattr (a, n) -> Tattr (expr a, n)
    | Ttuple ts -> Ttuple (List.map target ts)
  in
  let rec stmt = function
    | Expr_stmt (e, p) -> Expr_stmt (expr e, pos p)
    | Assign (t, e, p) -> Assign (target t, expr e, pos p)
    | Aug_assign (t, op, e, p) -> Aug_assign (target t, op, expr e, pos p)
    | If (arms, els) ->
      If
        ( List.map (fun (c, p, b) -> (expr c, pos p, block b)) arms,
          Option.map block els )
    | While (c, p, b) -> While (expr c, pos p, block b)
    | For (t, e, b, p) -> For (target t, expr e, block b, pos p)
    | Return (e, p) -> Return (Option.map expr e, pos p)
    | Raise (e, p) -> Raise (Option.map expr e, pos p)
    | Try (b, handlers, fin) ->
      Try
        ( block b,
          List.map
            (fun h ->
              { h with h_bind = Option.map ident h.h_bind; h_body = block h.h_body })
            handlers,
          Option.map block fin )
    | Break p -> Break (pos p)
    | Continue p -> Continue (pos p)
    | (Pass | Func_def _ | Class_def _ | Global _) as s -> s
  and block b = List.map stmt b in
  {
    fname = ident f.fname;
    params = List.map ident f.params;
    defaults = List.map (fun (n, e) -> (ident n, expr e)) f.defaults;
    body = block f.body;
    fpos = pos f.fpos;
  }

(* The invocation plan with names erased, or [None] for the plans the
   key does not model (classes and whole-file scripts). *)
let entry_and_plan (c : Candidate.t) =
  match c.Candidate.invocation with
  | Candidate.Direct -> Some (c.Candidate.func_name, "direct")
  | Candidate.Split_call (f, sep, k) -> Some (f, Printf.sprintf "split %C %d" sep k)
  | Candidate.Via_argv f -> Some (f, "argv")
  | Candidate.Via_stdin f -> Some (f, "stdin")
  | Candidate.Via_file f -> Some (f, "file")
  | Candidate.Class_then_method _ | Candidate.Ctor_then_method _
  | Candidate.Script_var _ | Candidate.Script_argv _ | Candidate.Script_stdin _ ->
    None

(* The clone key of a candidate whose entry function is [entry] under
   [plan].  Two candidates with one key run identically on every input
   up to the file names of their trace sites (DESIGN.md §7):

   - The closure — the entry function and every module-level function
     or literal constant it can reach by name — is the same code, up to
     a renaming of the functions' def names and of its files.  Files
     become their closure positions; lines stay.
   - Every free name resolves the same way: to a builtin (bound nowhere
     at module level), to a closure function bound once by its [def],
     or to a constant bound once by its literal.  Module loading
     provably reaches each of those bindings: only inert statements
     precede them in their files.  A list or dict constant could be
     mutated at load, so it also needs an inert load of the whole
     repository.
   - Def names are erased only where they cannot reach a value: no
     function of the closure reads one other than as a direct callee
     (a function value prints its name) or binds an exception message
     (arity errors name the function).
   - The closure's file names sort the same way among themselves and
     against {!Feature.blackbox_site}'s ["<output>"], so featurized
     literals sort the same way and DNF covers rename exactly.

   Raises [Unresolvable] for anything else. *)
let closure_key (m : module_info) ~entry ~plan : string * string list =
  let index : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let units = ref [] and n_units = ref 0 and queue = Queue.create () in
  let builtins = ref [] and mutable_const = ref false in
  let enter name u (fi, si) =
    if si >= m.safe_len.(fi) then raise Unresolvable;
    Hashtbl.add index name !n_units;
    units := (name, u) :: !units;
    incr n_units;
    Queue.add u queue
  in
  let resolve name =
    if not (Hashtbl.mem index name) then
      match Hashtbl.find_opt m.bindings name with
      | None -> builtins := name :: !builtins
      | Some [ Def (f, Some loc) ] -> enter name (Fn f) loc
      | Some [ Const (e, loc) ] ->
        let rec mutable_ = function
          | List_lit _ | Dict_lit _ -> true
          | Tuple_lit es -> List.exists mutable_ es
          | _ -> false
        in
        if mutable_ e then mutable_const := true;
        enter name (Cst (name, e)) loc
      | Some _ -> raise Unresolvable
  in
  resolve entry;
  (match Hashtbl.find_opt index entry with
   | Some 0 when (match !units with [ (_, Fn _) ] -> true | _ -> false) -> ()
   | _ -> raise Unresolvable);
  let names_visible = ref false and values_read = ref [] in
  while not (Queue.is_empty queue) do
    match Queue.pop queue with
    | Cst _ -> ()
    | Fn f ->
      let reads, values, binds = fn_reads f in
      if binds then names_visible := true;
      List.iter resolve reads;
      values_read := values @ !values_read
  done;
  if !mutable_const && not m.load_inert then raise Unresolvable;
  let units = List.rev !units in
  let is_fn n = match List.assoc_opt n units with Some (Fn _) -> true | _ -> false in
  if List.exists is_fn !values_read then names_visible := true;
  let erase = not !names_visible in
  let files =
    List.fold_left
      (fun acc (_, u) ->
        match u with
        | Fn f when not (List.mem f.fpos.file acc) -> f.fpos.file :: acc
        | _ -> acc)
      [] units
    |> List.rev
  in
  let position file =
    let rec go i = function
      | [] -> file
      | f :: rest -> if String.equal f file then string_of_int i else go (i + 1) rest
    in
    go 0 files
  in
  let ident n =
    if erase && is_fn n then "#" ^ string_of_int (Hashtbl.find index n) else n
  in
  let unit_repr (name, u) =
    match u with
    | Fn f ->
      Marshal.to_string (rename_func ~ident ~file:position f) [ Marshal.No_sharing ]
    | Cst (_, e) -> name ^ "=" ^ Marshal.to_string e [ Marshal.No_sharing ]
  in
  let sorted = List.sort String.compare ("<output>" :: files) in
  let rank f =
    let rec go i = function
      | [] -> -1
      | g :: rest -> if String.equal f g then i else go (i + 1) rest
    in
    go 0 sorted
  in
  let parts =
    plan
    :: string_of_bool erase
    :: String.concat "," (List.map (fun f -> string_of_int (rank f)) files)
    :: String.concat "," (List.sort_uniq String.compare !builtins)
    :: List.map unit_repr units
  in
  (Digest.to_hex (Digest.string (String.concat "\x00" parts)), files)

let compute_clone (c : Candidate.t) : clone =
  let own = { class_key = "own " ^ Candidate.key c; files = [] } in
  match entry_and_plan c with
  | None -> own
  | Some (entry, plan) ->
    (match closure_key (module_info c.Candidate.repo) ~entry ~plan with
     | class_key, files -> { class_key; files }
     | exception Unresolvable -> own)

let clone_memo = Repo.memo ()

let clone (c : Candidate.t) : clone =
  memoized_candidate clone_memo c (fun () -> compute_clone c)

(* ------------------------------------------------------------------ *)
(* Repository lint                                                     *)
(* ------------------------------------------------------------------ *)

let diagnostics_memo = Repo.memo ()

let repo_diagnostics (repo : Repo.t) : Staticcheck.Diag.t list =
  Repo.memoized diagnostics_memo repo () (fun () ->
      let progs, skipped = Repo.parse_each repo in
      let parse_diags =
        List.map
          (fun (file, line, msg) ->
            Staticcheck.Check.parse_error_diag ~file ~line msg)
          skipped
      in
      List.sort Staticcheck.Diag.compare
        (parse_diags @ Staticcheck.Check.check_programs progs))
