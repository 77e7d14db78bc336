(** Tree-walking MiniScript evaluator: the executable reference the
    bytecode VM ({!Minilang.Vm}) must match.

    It evaluates the AST directly, one tick per expression evaluated, per
    statement executed and per [for]-loop item — the three tick sites of
    {!Minilang.Rt} and {!Absint.Stepbound} — and emits the same trace
    events at the same points as the VM.  Values, operators, builtins,
    methods and the regex bridge are {!Minilang.Rt}'s, shared with the
    VM.  Only the test suite links this library. *)

open Minilang
open Value
open Rt

(* One tick: the contract {!Rt.tick_n} charges in batches.  The
   wall-clock deadline is probed only every 256 steps so a run never
   pays one clock syscall per statement. *)
let tick ctx =
  ctx.steps <- ctx.steps + 1;
  if ctx.steps > ctx.config.max_steps then
    raise (Sandbox_limit "step budget exhausted");
  match ctx.deadline_ns with
  | Some d when ctx.steps land 255 = 0 && Telemetry.now_ns () >= d ->
    raise (Cancelled deadline_message)
  | _ -> ()

type frame = {
  scope : scope;
  global_names : (string, unit) Hashtbl.t;
}

let rec eval ctx frame (e : Ast.expr) : Value.t =
  tick ctx;
  match e with
  | Ast.Int i -> Vint i
  | Ast.Float f -> Vfloat f
  | Ast.Str s -> Vstr s
  | Ast.Bool b -> Vbool b
  | Ast.None_lit -> Vnone
  | Ast.Var name -> lookup_var ctx frame name
  | Ast.Binop (Ast.And, a, b, _) ->
    let va = eval ctx frame a in
    if truthy va then eval ctx frame b else va
  | Ast.Binop (Ast.Or, a, b, _) ->
    let va = eval ctx frame a in
    if truthy va then va else eval ctx frame b
  | Ast.Binop (op, a, b, _) ->
    let va = eval ctx frame a in
    let vb = eval ctx frame b in
    eval_binop op va vb
  | Ast.Unop (Ast.Neg, e) ->
    (match eval ctx frame e with
     | Vint i -> Vint (-i)
     | Vfloat f -> Vfloat (-.f)
     | v ->
       raise_error "TypeError"
         (Printf.sprintf "bad operand type for unary -: '%s'" (type_name v)))
  | Ast.Unop (Ast.Not, e) -> Vbool (not (truthy (eval ctx frame e)))
  | Ast.Cond (c, a, b, pos) ->
    let taken = truthy (eval ctx frame c) in
    Trace.emit ctx.collector (Trace.Branch (Trace.site_of_pos pos, taken));
    if taken then eval ctx frame a else eval ctx frame b
  | Ast.Call (f, args, pos) ->
    let fv = eval ctx frame f in
    let argv = List.map (eval ctx frame) args in
    call_value ctx fv argv pos
  | Ast.Method (obj, name, args, pos) ->
    let ov = eval ctx frame obj in
    let argv = List.map (eval ctx frame) args in
    call_method ctx ov name argv pos
  | Ast.Attr (obj, name) ->
    (match eval ctx frame obj with
     | Vobj o ->
       (match Hashtbl.find_opt o.fields name with
        | Some v -> v
        | None ->
          raise_error "AttributeError"
            (Printf.sprintf "'%s' object has no attribute '%s'" o.ocls name))
     | Vbuiltin "re_module" -> Vbuiltin ("re." ^ name)
     | Vbuiltin "sys_module" when name = "argv" -> ctx.argv
     | v ->
       raise_error "AttributeError"
         (Printf.sprintf "'%s' object has no attribute '%s'" (type_name v) name))
  | Ast.Index (c, i, _) ->
    let cv = eval ctx frame c in
    let iv = eval ctx frame i in
    index_value cv iv
  | Ast.Slice (c, lo, hi, _) ->
    let cv = eval ctx frame c in
    let evi = function
      | None -> None
      | Some e ->
        (match eval ctx frame e with
         | Vint i -> Some i
         | Vnone -> None
         | v ->
           raise_error "TypeError"
             (Printf.sprintf "slice indices must be integers, not %s"
                (type_name v)))
    in
    slice_value cv (evi lo) (evi hi)
  | Ast.List_lit es -> Vlist (ref (List.map (eval ctx frame) es))
  | Ast.Tuple_lit es -> Vtuple (List.map (eval ctx frame) es)
  | Ast.Dict_lit kvs ->
    Vdict (ref (List.map (fun (k, v) -> (eval ctx frame k, eval ctx frame v)) kvs))

and lookup_var ctx frame name =
  match Hashtbl.find_opt frame.scope.vars name with
  | Some v -> v
  | None ->
    (match scope_lookup (module_scope frame.scope) name with
     | Some v -> v
     | None -> lookup_fallback ctx name)

and call_value ctx fv args pos =
  match fv with
  | Vfun closure -> call_closure ctx closure None args
  | Vbound (self, closure) -> call_closure ctx closure (Some self) args
  | Vbuiltin name when String.length name > 3 && String.sub name 0 3 = "re." ->
    re_module_method (String.sub name 3 (String.length name - 3)) args
  | Vbuiltin name when String.length name > 4 && String.sub name 0 4 = "exc:" ->
    (* Exception constructor: ValueError("msg") builds an exception
       object that `raise` re-raises with its kind and message. *)
    make_exception_object (String.sub name 4 (String.length name - 4)) args
  | Vbuiltin name -> call_builtin ctx name args
  | Vclass cls -> instantiate ctx cls args pos
  | v ->
    raise_error "TypeError"
      (Printf.sprintf "'%s' object is not callable" (type_name v))

and call_closure ctx closure self args =
  ctx.depth <- ctx.depth + 1;
  if ctx.depth > ctx.config.max_call_depth then begin
    ctx.depth <- ctx.depth - 1;
    raise (Sandbox_limit "maximum call depth exceeded")
  end;
  let fn = closure.cl_func in
  let scope = scope_create ~parent:(module_scope closure.cl_scope) () in
  let frame = { scope; global_names = Hashtbl.create 4 } in
  let params =
    match self with
    | Some o ->
      (match fn.params with
       | self_name :: rest ->
         Hashtbl.replace scope.vars self_name (Vobj o);
         rest
       | [] ->
         raise_error "TypeError"
           (Printf.sprintf "method %s() takes no arguments" fn.fname))
    | None -> fn.params
  in
  let n_params = List.length params and n_args = List.length args in
  if n_args > n_params then
    raise_error "TypeError"
      (Printf.sprintf "%s() takes %d arguments (%d given)" fn.fname n_params
         n_args);
  List.iteri
    (fun i p ->
      if i < n_args then Hashtbl.replace scope.vars p (List.nth args i)
      else
        match List.assoc_opt p fn.defaults with
        | Some default -> Hashtbl.replace scope.vars p (eval ctx frame default)
        | None ->
          raise_error "TypeError"
            (Printf.sprintf "%s() missing required argument '%s'" fn.fname p))
    params;
  let result =
    try
      exec_block ctx frame fn.body;
      (* Implicit return: record it like byte-code RETURN_VALUE of None. *)
      Trace.emit ctx.collector
        (Trace.Return (Trace.site_of_pos fn.fpos, Trace.Rvoid));
      Vnone
    with
    | Return_signal v -> v
    | e ->
      ctx.depth <- ctx.depth - 1;
      raise e
  in
  ctx.depth <- ctx.depth - 1;
  result

and instantiate ctx cls args pos =
  let fields = Hashtbl.create 8 in
  let o = { ocls = cls.rt_cname; fields } in
  (match List.assoc_opt "__init__" cls.rt_methods with
   | Some init -> ignore (call_closure ctx init (Some o) args)
   | None ->
     if args <> [] then
       raise_error "TypeError"
         (Printf.sprintf "%s() takes no arguments" cls.rt_cname));
  ignore pos;
  (* Bind methods lazily through call_method; attach the class. *)
  Hashtbl.replace fields "__class__" (Vclass cls);
  Vobj o

and call_method ctx ov name args pos =
  match ov with
  | Vstr s -> str_method s name args
  | Vlist l -> list_method l name args
  | Vdict d -> dict_method d name args
  | Vobj ({ ocls = "file"; _ } as o) -> file_method o name args
  | Vobj o ->
    (match Hashtbl.find_opt o.fields "__class__" with
     | Some (Vclass cls) ->
       (match List.assoc_opt name cls.rt_methods with
        | Some m -> call_closure ctx m (Some o) args
        | None ->
          (* A field holding a callable also works. *)
          (match Hashtbl.find_opt o.fields name with
           | Some fv -> call_value ctx fv args pos
           | None ->
             raise_error "AttributeError"
               (Printf.sprintf "'%s' object has no attribute '%s'" o.ocls name)))
     | _ ->
       raise_error "AttributeError"
         (Printf.sprintf "'%s' object has no attribute '%s'" o.ocls name))
  | Vbuiltin "re_module" -> re_module_method name args
  | Vbuiltin "sys_module" when name = "exit" -> raise_error "SystemExit" "exit"
  | v ->
    raise_error "AttributeError"
      (Printf.sprintf "'%s' object has no attribute '%s'" (type_name v) name)

and assign ctx frame (tgt : Ast.target) (v : Value.t) (pos : Ast.pos) =
  match tgt with
  | Ast.Tvar name ->
    if ctx.collector.Trace.record_assigns then
      Trace.emit ctx.collector
        (Trace.Assign
           (Trace.site_of_pos pos, name, truncate_display (to_display_string v)));
    if Hashtbl.mem frame.global_names name then
      Hashtbl.replace (module_scope frame.scope).vars name v
    else Hashtbl.replace frame.scope.vars name v
  | Ast.Tattr (obj_e, name) ->
    (match eval ctx frame obj_e with
     | Vobj o ->
       if ctx.collector.Trace.record_assigns then
         Trace.emit ctx.collector
           (Trace.Assign
              ( Trace.site_of_pos pos,
                "self." ^ name,
                truncate_display (to_display_string v) ));
       Hashtbl.replace o.fields name v
     | v' ->
       raise_error "AttributeError"
         (Printf.sprintf "cannot set attribute on '%s'" (type_name v')))
  | Ast.Tindex (c_e, i_e) ->
    let cv = eval ctx frame c_e in
    let iv = eval ctx frame i_e in
    (match cv with
     | Vlist l ->
       (match iv with
        | Vint i ->
          let items = !l in
          let i = normalize_index (List.length items) i in
          if i < 0 || i >= List.length items then
            raise_error "IndexError" "list assignment index out of range"
          else l := List.mapi (fun j x -> if j = i then v else x) items
        | _ -> raise_error "TypeError" "list indices must be integers")
     | Vdict d ->
       d :=
         (match List.find_opt (fun (k, _) -> equal iv k) !d with
          | Some _ ->
            List.map (fun (k, v') -> if equal iv k then (k, v) else (k, v')) !d
          | None -> !d @ [ (iv, v) ])
     | _ ->
       raise_error "TypeError"
         (Printf.sprintf "'%s' object does not support item assignment"
            (type_name cv)))
  | Ast.Ttuple tgts ->
    let values =
      match v with
      | Vtuple vs -> vs
      | Vlist l -> !l
      | _ -> raise_error "TypeError" "cannot unpack non-sequence"
    in
    if List.length values <> List.length tgts then
      raise_error "ValueError" "unpacking mismatch";
    List.iter2 (fun t v -> assign ctx frame t v pos) tgts values

and read_target ctx frame (tgt : Ast.target) pos : Value.t =
  match tgt with
  | Ast.Tvar name -> lookup_var ctx frame name
  | Ast.Tattr (e, n) -> eval ctx frame (Ast.Attr (e, n))
  | Ast.Tindex (c, i) -> eval ctx frame (Ast.Index (c, i, pos))
  | Ast.Ttuple _ -> raise_error "TypeError" "invalid augmented assignment target"

and exec_block ctx frame (b : Ast.block) = List.iter (exec_stmt ctx frame) b

and exec_stmt ctx frame (s : Ast.stmt) =
  tick ctx;
  match s with
  | Ast.Pass -> ()
  | Ast.Expr_stmt (e, _) -> ignore (eval ctx frame e)
  | Ast.Assign (tgt, e, pos) ->
    let v = eval ctx frame e in
    assign ctx frame tgt v pos
  | Ast.Aug_assign (tgt, op, e, pos) ->
    let old_v = read_target ctx frame tgt pos in
    let v = eval_binop op old_v (eval ctx frame e) in
    assign ctx frame tgt v pos
  | Ast.If (arms, els) ->
    let rec go = function
      | [] -> (match els with Some b -> exec_block ctx frame b | None -> ())
      | (cond, pos, body) :: rest ->
        let taken = truthy (eval ctx frame cond) in
        Trace.emit ctx.collector (Trace.Branch (Trace.site_of_pos pos, taken));
        if taken then exec_block ctx frame body else go rest
    in
    go arms
  | Ast.While (cond, pos, body) ->
    let rec loop () =
      let taken = truthy (eval ctx frame cond) in
      Trace.emit ctx.collector (Trace.Branch (Trace.site_of_pos pos, taken));
      if taken then begin
        (try exec_block ctx frame body with Continue_signal -> ());
        loop ()
      end
    in
    (try loop () with Break_signal -> ())
  | Ast.For (tgt, iter_e, body, pos) ->
    let items = iterate_value (eval ctx frame iter_e) in
    (try
       List.iter
         (fun item ->
           tick ctx;
           assign ctx frame tgt item pos;
           try exec_block ctx frame body with Continue_signal -> ())
         items
     with Break_signal -> ())
  | Ast.Return (e_opt, pos) ->
    let v = match e_opt with Some e -> eval ctx frame e | None -> Vnone in
    Trace.emit ctx.collector
      (Trace.Return (Trace.site_of_pos pos, Trace.abstract_value v));
    raise (Return_signal v)
  | Ast.Raise (e_opt, _) ->
    (match e_opt with
     | None -> raise_error "Exception" "re-raise"
     | Some e -> raise_value (eval ctx frame e))
  | Ast.Try (body, handlers, fin) ->
    let run_finally () =
      match fin with Some b -> exec_block ctx frame b | None -> ()
    in
    (try
       exec_block ctx frame body;
       run_finally ()
     with
     | Runtime_error (kind, msg) as exn ->
       let matching =
         List.find_opt
           (fun h ->
             match h.Ast.h_filter with
             | None -> true
             | Some f ->
               if List.mem f known_exception_kinds then
                 f = "Exception" || f = kind
               else true (* py2-style "except e:" catch-all binder *))
           handlers
       in
       (match matching with
        | Some h ->
          (match h.Ast.h_bind with
           | Some b -> Hashtbl.replace frame.scope.vars b (Vstr msg)
           | None ->
             (match h.Ast.h_filter with
              | Some f when not (List.mem f known_exception_kinds) ->
                Hashtbl.replace frame.scope.vars f (Vstr msg)
              | _ -> ()));
          (try exec_block ctx frame h.Ast.h_body with e -> run_finally (); raise e);
          run_finally ()
        | None -> run_finally (); raise exn)
     | (Sandbox_limit _ | Cancelled _ | Return_signal _ | Break_signal
       | Continue_signal) as e ->
       run_finally ();
       raise e)
  | Ast.Break _ -> raise Break_signal
  | Ast.Continue _ -> raise Continue_signal
  | Ast.Func_def fn ->
    let closure = { cl_func = fn; cl_scope = frame.scope } in
    Hashtbl.replace frame.scope.vars fn.fname (Vfun closure)
  | Ast.Class_def c ->
    let methods =
      List.map
        (fun m -> (m.Ast.fname, { cl_func = m; cl_scope = frame.scope }))
        c.methods
    in
    Hashtbl.replace frame.scope.vars c.cname
      (Vclass { rt_cname = c.cname; rt_methods = methods })
  | Ast.Global names ->
    List.iter (fun n -> Hashtbl.replace frame.global_names n ()) names

let module_frame scope = { scope; global_names = Hashtbl.create 1 }

(** Execute a whole parsed file into [scope]. *)
let exec_program ctx scope (p : Ast.program) =
  exec_block ctx (module_frame scope) p.Ast.prog_body

(** Call a callable value at the driver's synthetic [<call>] position. *)
let call_callable ctx callable args =
  call_value ctx callable args { Ast.file = "<call>"; line = 0 }

(** {!Minilang.Interp.load_module} with this evaluator: load the files
    into a fresh scope, untraced, tolerating per-file errors. *)
let load_module ~config (programs : Ast.program list) : scope =
  let scope = scope_create () in
  List.iter
    (fun p ->
      let ctx = Interp.create_ctx ~config (Trace.create_collector ()) in
      try exec_program ctx scope p with
      | Runtime_error _ | Sandbox_limit _ | Return_signal _ | Break_signal
      | Continue_signal ->
        ())
    programs;
  scope
