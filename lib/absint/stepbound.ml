(** Termination & step-bound analysis (DESIGN.md §13).

    Computes a per-input-length interpreter step bound
    [steps ≤ a·len(input) + b] for a candidate entry function, or the
    precise prefix cost of a provable event-free spin.  Must-style:
    anything the analysis cannot price aborts to [Bound_unknown].

    The cost model mirrors the interpreter's three — and only three —
    tick sites exactly ({!Minilang.Rt}):
    - one tick per expression evaluated, bounded above by the syntactic
      node count of the expression (short-circuiting only evaluates
      fewer);
    - one tick per executed statement;
    - one tick per [for]-loop item.
    Native builtins, string/list/dict methods and the regex bridge
    never tick, so expression cost is independent of value sizes; input
    length enters only through loop iteration counts.  Hidden ticking
    bodies (user-function calls, methods on possible user objects) are
    rejected — callers gate on the same notobj judgment as
    {!Purity}. *)

open Minilang
module StrSet = Staticcheck.Env.StrSet
module StrMap = Map.Make (String)

exception Abort

(* ------------------------------------------------------------------ *)
(* Affine bounds  value ≤ a·len(input) + b                             *)
(* ------------------------------------------------------------------ *)

type aff = { a : int; b : int }

let aff_const b = { a = 0; b }
let aff_add x y = { a = x.a + y.a; b = x.b + y.b }
let aff_addc x k = { x with b = x.b + k }
let aff_scale k x = { a = k * x.a; b = k * x.b }  (* k ≥ 0 *)
let aff_max x y = { a = max x.a y.a; b = max x.b y.b }

(* product of two upper bounds, exact only when one side is a constant
   (otherwise the result would be quadratic in len — abort) *)
let aff_mul x y =
  if x.a = 0 && x.b >= 0 then aff_scale x.b y
  else if y.a = 0 && y.b >= 0 then aff_scale y.b x
  else raise Abort

let ceil_div_nonneg n d = if n <= 0 then 0 else (n + d - 1) / d

(* ------------------------------------------------------------------ *)
(* Abstract values                                                     *)
(* ------------------------------------------------------------------ *)

type aval =
  | Aint of int  (** exactly this integer *)
  | Astr of aff  (** a string of length ≤ aff *)
  | Alist of { items : aff; elem : aval }  (** list/tuple, ≤ items long *)
  | Atop

let rec join x y =
  match (x, y) with
  | Aint a, Aint b when a = b -> Aint a
  | Astr p, Astr q -> Astr (aff_max p q)
  | Alist p, Alist q ->
    Alist { items = aff_max p.items q.items; elem = join p.elem q.elem }
  | _ -> Atop

let elem_of = function
  | Astr _ -> Astr (aff_const 1)
  | Alist { elem; _ } -> elem
  | _ -> Atop

type ctx = {
  notobj : StrSet.t;  (** vars proven to never hold a user object *)
  shadowed : string -> bool;  (** name bound locally or at module scope *)
}

(* ------------------------------------------------------------------ *)
(* Expression cost: syntactic node count                               *)
(* ------------------------------------------------------------------ *)

let rec expr_nodes (e : Ast.expr) : int =
  match e with
  | Ast.Int _ | Ast.Float _ | Ast.Str _ | Ast.Bool _ | Ast.None_lit
  | Ast.Var _ -> 1
  | Ast.Binop (_, a, b, _) -> 1 + expr_nodes a + expr_nodes b
  | Ast.Unop (_, a) -> 1 + expr_nodes a
  | Ast.Call (f, args, _) ->
    1 + expr_nodes f + List.fold_left (fun n a -> n + expr_nodes a) 0 args
  | Ast.Method (r, _, args, _) ->
    1 + expr_nodes r + List.fold_left (fun n a -> n + expr_nodes a) 0 args
  | Ast.Attr (a, _) -> 1 + expr_nodes a
  | Ast.Index (a, i, _) -> 1 + expr_nodes a + expr_nodes i
  | Ast.Slice (a, lo, hi, _) ->
    1 + expr_nodes a
    + (match lo with Some e -> expr_nodes e | None -> 0)
    + (match hi with Some e -> expr_nodes e | None -> 0)
  | Ast.List_lit es | Ast.Tuple_lit es ->
    1 + List.fold_left (fun n a -> n + expr_nodes a) 0 es
  | Ast.Dict_lit kvs ->
    1 + List.fold_left (fun n (k, v) -> n + expr_nodes k + expr_nodes v) 0 kvs
  | Ast.Cond (c, a, b, _) -> 1 + expr_nodes c + expr_nodes a + expr_nodes b

let stmt_expr_nodes (s : Ast.stmt) : int =
  List.fold_left
    (fun n e -> n + expr_nodes e)
    0
    (Staticcheck.Env.stmt_exprs s)

(* Any method call may mutate a list reachable through aliases; after
   one, every list bound loses its length guarantee. *)
let rec expr_has_method (e : Ast.expr) : bool =
  match e with
  | Ast.Method _ -> true
  | Ast.Int _ | Ast.Float _ | Ast.Str _ | Ast.Bool _ | Ast.None_lit
  | Ast.Var _ -> false
  | Ast.Binop (_, a, b, _) -> expr_has_method a || expr_has_method b
  | Ast.Unop (_, a) -> expr_has_method a
  | Ast.Call (f, args, _) ->
    expr_has_method f || List.exists expr_has_method args
  | Ast.Attr (a, _) -> expr_has_method a
  | Ast.Index (a, i, _) -> expr_has_method a || expr_has_method i
  | Ast.Slice (a, lo, hi, _) ->
    expr_has_method a
    || (match lo with Some e -> expr_has_method e | None -> false)
    || (match hi with Some e -> expr_has_method e | None -> false)
  | Ast.List_lit es | Ast.Tuple_lit es -> List.exists expr_has_method es
  | Ast.Dict_lit kvs ->
    List.exists (fun (k, v) -> expr_has_method k || expr_has_method v) kvs
  | Ast.Cond (c, a, b, _) ->
    expr_has_method c || expr_has_method a || expr_has_method b

let havoc_lists env =
  StrMap.map (function Alist _ -> Atop | v -> v) env

let havoc_names names env =
  StrSet.fold (fun n acc -> StrMap.add n Atop acc) names env

(* ------------------------------------------------------------------ *)
(* Abstract evaluation                                                 *)
(* ------------------------------------------------------------------ *)

let re_methods = [ "match"; "fullmatch"; "search"; "findall" ]

(* Reject any expression that could run a hidden ticking body: calls
   that do not resolve to builtins/re, methods on receivers not proven
   notobj.  Everything else is priced by node count alone. *)
let rec check_no_hidden_body ctx (e : Ast.expr) : unit =
  let sub () =
    match e with
    | Ast.Binop (_, a, b, _) ->
      check_no_hidden_body ctx a; check_no_hidden_body ctx b
    | Ast.Unop (_, a) -> check_no_hidden_body ctx a
    | Ast.Attr (a, _) -> check_no_hidden_body ctx a
    | Ast.Index (a, i, _) ->
      check_no_hidden_body ctx a; check_no_hidden_body ctx i
    | Ast.Slice (a, lo, hi, _) ->
      check_no_hidden_body ctx a;
      Option.iter (check_no_hidden_body ctx) lo;
      Option.iter (check_no_hidden_body ctx) hi
    | Ast.List_lit es | Ast.Tuple_lit es ->
      List.iter (check_no_hidden_body ctx) es
    | Ast.Dict_lit kvs ->
      List.iter
        (fun (k, v) -> check_no_hidden_body ctx k; check_no_hidden_body ctx v)
        kvs
    | Ast.Cond (c, a, b, _) ->
      check_no_hidden_body ctx c;
      check_no_hidden_body ctx a;
      check_no_hidden_body ctx b
    | _ -> ()
  in
  match e with
  | Ast.Call (Ast.Var f, args, _) ->
    if ctx.shadowed f then raise Abort
    else if
      List.mem f Interp.builtin_names
      || List.mem f Interp.known_exception_kinds
    then List.iter (check_no_hidden_body ctx) args
    else List.iter (check_no_hidden_body ctx) args
    (* an unbound name raises NameError before running anything *)
  | Ast.Call (Ast.Attr (Ast.Var "re", m), args, _)
    when (not (ctx.shadowed "re")) && List.mem m re_methods ->
    List.iter (check_no_hidden_body ctx) args
  | Ast.Call _ -> raise Abort
  (* [re.match(...)] parses as a Method on the module value; the
     dispatch is native (interp's re bridge), never a ticking body *)
  | Ast.Method (Ast.Var "re", m, args, _)
    when (not (ctx.shadowed "re")) && List.mem m re_methods ->
    List.iter (check_no_hidden_body ctx) args
  | Ast.Method (Ast.Var v, _, args, _) when StrSet.mem v ctx.notobj ->
    List.iter (check_no_hidden_body ctx) args
  | Ast.Method (r, _, args, _) ->
    (* method on a non-variable receiver: admit only receivers that
       are syntactically never a user object *)
    let rec surely_notobj = function
      | Ast.Str _ | Ast.Int _ | Ast.Float _ | Ast.Bool _ | Ast.None_lit ->
        true
      | Ast.Var v -> StrSet.mem v ctx.notobj
      | Ast.Method (r', _, _, _) -> surely_notobj r'
      | Ast.Binop (_, a, b, _) -> surely_notobj a && surely_notobj b
      | Ast.Index (a, _, _) | Ast.Slice (a, _, _, _) -> surely_notobj a
      | Ast.List_lit _ | Ast.Tuple_lit _ | Ast.Dict_lit _ -> true
      | _ -> false
    in
    if surely_notobj r then begin
      check_no_hidden_body ctx r;
      List.iter (check_no_hidden_body ctx) args
    end
    else raise Abort
  | _ -> sub ()

let rec abstract_eval ctx env (e : Ast.expr) : aval =
  match e with
  | Ast.Str s -> Astr { a = 0; b = String.length s }
  | Ast.Int n -> Aint n
  | Ast.Float _ | Ast.Bool _ | Ast.None_lit -> Atop
  | Ast.Var v -> (try StrMap.find v env with Not_found -> Atop)
  | Ast.Binop (Ast.Add, x, y, _) -> (
    match (abstract_eval ctx env x, abstract_eval ctx env y) with
    | Aint p, Aint q -> Aint (p + q)
    | Astr p, Astr q -> Astr (aff_add p q)
    | Alist p, Alist q ->
      Alist { items = aff_add p.items q.items; elem = join p.elem q.elem }
    | _ -> Atop)
  | Ast.Binop (Ast.Sub, x, y, _) -> (
    match (abstract_eval ctx env x, abstract_eval ctx env y) with
    | Aint p, Aint q -> Aint (p - q)
    | _ -> Atop)
  | Ast.Binop _ -> Atop
  | Ast.Unop (Ast.Neg, x) -> (
    match abstract_eval ctx env x with Aint n -> Aint (-n) | _ -> Atop)
  | Ast.Unop _ -> Atop
  | Ast.Method (Ast.Var "re", m, [ _; se ], _)
    when (not (ctx.shadowed "re")) && List.mem m re_methods -> (
    match (abstract_eval ctx env se, m) with
    | Astr aff, ("match" | "fullmatch" | "search") ->
      (* the match value is a substring of the subject *)
      Astr aff
    | Astr aff, "findall" -> Alist { items = aff_addc aff 1; elem = Astr aff }
    | _ -> Atop)
  | Ast.Method (r, m, args, _) -> (
    match (abstract_eval ctx env r, m, args) with
    | Astr aff, ("strip" | "lstrip" | "rstrip" | "lower" | "upper" | "title"),
      _ -> Astr aff
    | Astr aff, "replace", [ Ast.Str o; Ast.Str n ] ->
      if String.length n <= String.length o then Astr aff
      else Astr (aff_scale (1 + String.length n) aff)
    | Astr aff, "zfill", [ Ast.Int w ] -> Astr { aff with b = max aff.b w }
    | Astr aff, "split", ([] | [ _ ]) ->
      (* at most len+1 parts for any separator; an empty separator
         raises before producing a list *)
      Alist { items = aff_addc aff 1; elem = Astr aff }
    | _ -> Atop)
  | Ast.Call (Ast.Var f, args, _) when not (ctx.shadowed f) -> (
    match (f, args) with
    | "range", [ e1 ] -> (
      match int_upper ctx env e1 with
      | Some items -> Alist { items; elem = Atop }
      | None -> Atop)
    | ("sorted" | "reversed" | "list"), [ e1 ] -> (
      match abstract_eval ctx env e1 with
      | Astr aff -> Alist { items = aff; elem = Astr (aff_const 1) }
      | Alist l -> Alist l
      | _ -> Atop)
    | "str", _ | "int", _ | "len", _ | _ -> Atop)
  | Ast.Call (Ast.Attr (Ast.Var "re", m), [ _; se ], _)
    when not (ctx.shadowed "re") -> (
    match (abstract_eval ctx env se, m) with
    | Astr aff, ("match" | "fullmatch" | "search") ->
      (* the match value is a substring of the subject *)
      Astr aff
    | Astr aff, "findall" -> Alist { items = aff_addc aff 1; elem = Astr aff }
    | _ -> Atop)
  | Ast.Call _ -> Atop
  | Ast.Index (a, _, _) -> elem_of (abstract_eval ctx env a)
  | Ast.Slice (a, _, _, _) -> (
    match abstract_eval ctx env a with
    | Astr aff -> Astr aff
    | Alist l -> Alist l
    | _ -> Atop)
  | Ast.List_lit es | Ast.Tuple_lit es ->
    Alist
      {
        items = aff_const (List.length es);
        elem =
          List.fold_left (fun acc e -> join acc (abstract_eval ctx env e))
            (Aint 0) es
          |> (fun v -> if es = [] then Atop else v);
      }
  | Ast.Dict_lit _ -> Atop
  | Ast.Cond (_, a, b, _) ->
    join (abstract_eval ctx env a) (abstract_eval ctx env b)
  | Ast.Attr _ -> Atop

(* Upper bound on an integer-valued expression *)
and int_upper ctx env (e : Ast.expr) : aff option =
  match e with
  | Ast.Int k -> Some (aff_const k)
  | Ast.Var v -> (
    match StrMap.find_opt v env with
    | Some (Aint k) -> Some (aff_const k)
    | _ -> None)
  | Ast.Call (Ast.Var "len", [ x ], _) when not (ctx.shadowed "len") -> (
    match abstract_eval ctx env x with
    | Astr aff -> Some aff
    | Alist { items; _ } -> Some items
    | _ -> None)
  | Ast.Binop (Ast.Add, x, y, _) -> (
    match (int_upper ctx env x, int_upper ctx env y) with
    | Some p, Some q -> Some (aff_add p q)
    | _ -> None)
  | Ast.Binop (Ast.Sub, x, Ast.Int k, _) -> (
    match int_upper ctx env x with
    | Some p -> Some (aff_addc p (-k))
    | None -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Statement cost                                                      *)
(* ------------------------------------------------------------------ *)

let rec tgt_vars acc = function
  | Ast.Tvar v -> v :: acc
  | Ast.Ttuple ts -> List.fold_left tgt_vars acc ts
  | Ast.Tindex _ | Ast.Tattr _ -> acc

let rec cost_block ctx env (stmts : Ast.block) : aff * aval StrMap.t =
  List.fold_left
    (fun (acc, env) s ->
      let c, env' = cost_stmt ctx env s in
      (aff_add acc c, env'))
    (aff_const 0, env) stmts

and cost_stmt ctx env (s : Ast.stmt) : aff * aval StrMap.t =
  List.iter (check_no_hidden_body ctx) (Staticcheck.Env.stmt_exprs s);
  let base = aff_const (1 + stmt_expr_nodes s) in
  let env =
    if List.exists expr_has_method (Staticcheck.Env.stmt_exprs s) then
      havoc_lists env
    else env
  in
  match s with
  | Ast.Pass | Ast.Break _ | Ast.Continue _ | Ast.Global _ -> (base, env)
  | Ast.Expr_stmt _ | Ast.Return _ | Ast.Raise _ -> (base, env)
  | Ast.Assign (Ast.Tvar v, e, _) ->
    (base, StrMap.add v (abstract_eval ctx env e) env)
  | Ast.Assign (Ast.Ttuple ts, e, _) ->
    let elem = elem_of (abstract_eval ctx env e) in
    ( base,
      List.fold_left (fun env v -> StrMap.add v elem env) env
        (List.fold_left tgt_vars [] ts) )
  | Ast.Assign ((Ast.Tindex _ | Ast.Tattr _), _, _) -> (base, env)
  | Ast.Aug_assign (Ast.Tvar v, op, e, pos) ->
    let av =
      abstract_eval ctx env (Ast.Binop (op, Ast.Var v, e, pos))
    in
    (aff_addc base 1 (* the target read *), StrMap.add v av env)
  | Ast.Aug_assign (_, _, _, _) -> (aff_addc base 4, env)
  | Ast.If (arms, els) ->
    let env0 = env in
    let branch_envs, costs =
      List.fold_left
        (fun (envs, costs) (_, _, body) ->
          let c, e' = cost_block ctx env0 body in
          (e' :: envs, c :: costs))
        ([], []) arms
    in
    let branch_envs, costs =
      match els with
      | Some b ->
        let c, e' = cost_block ctx env0 b in
        (e' :: branch_envs, c :: costs)
      | None -> (env0 :: branch_envs, costs)
    in
    let worst = List.fold_left aff_max (aff_const 0) costs in
    let joined =
      match branch_envs with
      | [] -> env0
      | e0 :: rest ->
        List.fold_left
          (fun acc e' ->
            StrMap.merge
              (fun _ a b ->
                match (a, b) with
                | Some x, Some y -> Some (join x y)
                | _ -> Some Atop)
              acc e')
          e0 rest
    in
    (aff_add base worst, joined)
  | Ast.While (cond, _, body) -> (
    match Staticcheck.Loops.while_counter cond body with
    | None -> raise Abort
    | Some c ->
      let v0 =
        match StrMap.find_opt c.Staticcheck.Loops.counter_var env with
        | Some (Aint k) -> k
        | _ -> raise Abort
      in
      let bound_up =
        match int_upper ctx env c.Staticcheck.Loops.counter_bound with
        | Some aff -> aff
        | None -> raise Abort
      in
      let step = c.Staticcheck.Loops.counter_step in
      let le_slack = if c.Staticcheck.Loops.counter_le then 1 else 0 in
      let numer = aff_addc bound_up (le_slack - v0) in
      let iters =
        {
          a = ceil_div_nonneg numer.a step;
          b = ceil_div_nonneg numer.b step + 1;
        }
      in
      let henv =
        havoc_lists (havoc_names (Staticcheck.Env.assigned_names body) env)
      in
      let body_cost, _ = cost_block ctx henv body in
      let per_iter = aff_addc body_cost (expr_nodes cond) in
      let total = aff_mul iters per_iter in
      (aff_add base (aff_addc total (expr_nodes cond)), henv))
  | Ast.For (tgt, iter, body, _) ->
    let vars = tgt_vars [] tgt in
    (match tgt with
     | Ast.Tvar _ | Ast.Ttuple _ -> ()
     | Ast.Tindex _ | Ast.Tattr _ -> raise Abort);
    let src = abstract_eval ctx env iter in
    let items, elem =
      match src with
      | Astr aff -> (aff, Astr (aff_const 1))
      | Alist { items; elem } -> (items, elem)
      | _ -> raise Abort
    in
    let henv =
      havoc_lists (havoc_names (Staticcheck.Env.assigned_names body) env)
    in
    let henv =
      List.fold_left (fun env v -> StrMap.add v elem env) henv vars
    in
    let body_cost, _ = cost_block ctx henv body in
    (* one tick per item plus its body *)
    let total = aff_mul items (aff_addc body_cost 1) in
    (aff_add base total, henv)
  | Ast.Try (body, handlers, fin) ->
    let cb, _ = cost_block ctx env body in
    let assigned =
      List.fold_left
        (fun acc b -> StrSet.union acc (Staticcheck.Env.assigned_names b))
        (Staticcheck.Env.assigned_names body)
        (List.map (fun (h : Ast.handler) -> h.Ast.h_body) handlers
         @ match fin with Some b -> [ b ] | None -> [])
    in
    let henv = havoc_lists (havoc_names assigned env) in
    let ch =
      List.fold_left
        (fun acc (h : Ast.handler) ->
          let c, _ = cost_block ctx henv h.Ast.h_body in
          aff_max acc c)
        (aff_const 0) handlers
    in
    let cf =
      match fin with
      | Some b -> fst (cost_block ctx henv b)
      | None -> aff_const 0
    in
    (* body + one handler + finally at most twice (normal path plus a
       re-raise path cannot both happen, but the max is cheap) *)
    (aff_add base (aff_add cb (aff_add ch (aff_scale 2 cf))), henv)
  | Ast.Func_def f -> (base, StrMap.add f.Ast.fname Atop env)
  | Ast.Class_def c -> (base, StrMap.add c.Ast.cname Atop env)

(* ------------------------------------------------------------------ *)
(* Function-level bounds                                               *)
(* ------------------------------------------------------------------ *)

(* Entry/exit overhead outside the body (closure call, return event,
   the traced-run wrapper) plus margin. *)
let slack = 64

let stmt_cost_straight (s : Ast.stmt) = 1 + stmt_expr_nodes s

(** Step bound for an entry function called with a single string
    argument.  [ctx.notobj] must come from {!Purity.notobj_set} for the
    same function. *)
let func_bound (ctx : ctx) (f : Ast.func) : Domain.bound =
  match f.Ast.params with
  | [ p ] -> (
    let env0 = StrMap.singleton p (Astr { a = 1; b = 0 }) in
    match cost_block ctx env0 f.Ast.body with
    | cost, _ ->
      Domain.Terminates { a = cost.a; b = cost.b + slack }
    | exception Abort -> (
      match Staticcheck.Loops.spin_shape f with
      | Some shape ->
        let prefix_cost =
          List.fold_left
            (fun acc s -> acc + stmt_cost_straight s)
            0 shape.Staticcheck.Loops.spin_prefix
        in
        Domain.Spins_after
          (prefix_cost + 1
          + expr_nodes shape.Staticcheck.Loops.spin_cond
          + slack)
      | None -> Domain.Bound_unknown))
  | _ -> Domain.Bound_unknown
