(** Bytecode executor for {!Compile} programs.

    The VM is observationally identical to the tree-walking reference
    evaluator the test suite keeps in [test/oracle] (called "the
    tree-walker" below): identical {!Trace.event} streams, identical
    outcomes, identical [ctx.steps] at every observable point (the tick
    contract documented in {!Rt} and {!Absint.Stepbound}), identical
    error messages — including the tree-walker's own quirks (the
    call-depth counter leaks on argument-binding errors, [__init__] runs
    before the [__class__] field is attached, handler binders bypass
    the [global] flag).  The differential fuzzer and the corpus parity
    test in [test/test_vm.ml] assert this bit-for-bit.

    Frames live on a single growable value array shared per run
    ([ctx.vm_stack]): a call reserves [nslots + max operand depth]
    cells above the watermark, so steady-state execution allocates
    nothing for locals or operands. *)

open Value
open Compile

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

(** Sentinel marking an unbound local slot; compared with [==] so a
    user-level string can never collide with it. *)
let unset : Value.t = Vbuiltin "\000unset"

type frame = {
  base : int;  (** first slot index in [ctx.vm_stack] *)
  sp0 : int;  (** operand-stack bottom = [base + nslots] *)
  mutable sp : int;
  mutable iters : Value.t list list;
      (** active [for]-loop iterator stack, innermost first *)
  mutable globals : (string, unit) Hashtbl.t option;
      (** names declared [global]; created lazily like the
          tree-walker's [frame.global_names] *)
  scope : Value.scope;
      (** module mode: the executing scope; function mode: the module
          root (locals live in slots) — this is what closures capture *)
  root : Value.scope;  (** module scope, for global stores/loads *)
}

let ensure_capacity (ctx : Rt.ctx) need =
  let cur = Array.length ctx.Rt.vm_stack in
  if cur < need then begin
    let bigger = Array.make (max need (max 64 (2 * cur))) unset in
    Array.blit ctx.Rt.vm_stack 0 bigger 0 cur;
    ctx.Rt.vm_stack <- bigger
  end

let call_pos : Ast.pos = { Ast.file = "<call>"; line = 0 }

(* ------------------------------------------------------------------ *)
(* Dispatch loop                                                       *)
(* ------------------------------------------------------------------ *)

let rec exec (ctx : Rt.ctx) (fr : frame) (code : Compile.code) =
  let instrs = code.c_instrs in
  let n = Array.length instrs in
  let pc = ref 0 in
  let running = ref true in
  (* These helpers read [ctx.Rt.vm_stack] at call time, never from a
     cached binding: a nested call can grow (reallocate) the stack
     array, and they are defined here — once per [exec] — rather than
     inside the dispatch loop so dispatching an instruction allocates
     nothing. *)
  let push v =
    let stack = ctx.Rt.vm_stack in
    stack.(fr.sp) <- v;
    fr.sp <- fr.sp + 1
  in
  let pop () =
    fr.sp <- fr.sp - 1;
    ctx.Rt.vm_stack.(fr.sp)
  in
  let popn k =
    let stack = ctx.Rt.vm_stack in
    let rec go k acc =
      if k = 0 then acc
      else begin
        fr.sp <- fr.sp - 1;
        go (k - 1) (stack.(fr.sp) :: acc)
      end
    in
    go k []
  in
  (* Loop-control signals unwind OCaml-exception-style out of nested
     calls, exactly as in the tree-walker; when the innermost loop
     covering the raising pc lives in THIS code unit the maps give its
     landing pad, otherwise the signal keeps propagating (an enclosing
     unit or the run boundary deals with it). *)
  while !running do
    try
      while !pc < n do
        let stack = ctx.Rt.vm_stack in
        (match instrs.(!pc) with
         | I_tick k ->
           (* Fast path of {!Rt.tick_n}, inlined: the compiler is not
              flambda, so the cross-module call would cost as much as
              the charge itself.  A budget crossing defers to [tick_n]
              with [steps] untouched, which then replays the exact
              sequential-tick semantics. *)
           let s = ctx.Rt.steps + k in
           if s > ctx.Rt.config.Rt.max_steps then Rt.tick_n ctx k
           else begin
             ctx.Rt.steps <- s;
             match ctx.Rt.deadline_ns with
             | None -> ()
             | Some d ->
               (* first multiple of 256 in (s-k, s] *)
               let m = (((s - k) lsr 8) + 1) lsl 8 in
               if m <= s && Telemetry.now_ns () >= d then begin
                 ctx.Rt.steps <- m;
                 raise (Rt.Cancelled Rt.deadline_message)
               end
           end;
           incr pc
         | I_const v ->
           push v;
           incr pc
         | I_pop ->
           fr.sp <- fr.sp - 1;
           incr pc
         | I_jump t -> pc := t
         | I_and t ->
           (* [a and b]: keep the falsy lhs as the result, else drop it
              and fall through into b's code. *)
           if truthy stack.(fr.sp - 1) then begin
             fr.sp <- fr.sp - 1;
             incr pc
           end
           else pc := t
         | I_or t ->
           if truthy stack.(fr.sp - 1) then pc := t
           else begin
             fr.sp <- fr.sp - 1;
             incr pc
           end
         | I_branch (ev_taken, ev_not, t) ->
           let taken = truthy (pop ()) in
           Trace.emit ctx.Rt.collector (if taken then ev_taken else ev_not);
           if taken then incr pc else pc := t
         | I_not ->
           stack.(fr.sp - 1) <- Vbool (not (truthy stack.(fr.sp - 1)));
           incr pc
         | I_neg ->
           (match stack.(fr.sp - 1) with
            | Vint i -> stack.(fr.sp - 1) <- Vint (-i)
            | Vfloat f -> stack.(fr.sp - 1) <- Vfloat (-.f)
            | v ->
              raise_error "TypeError"
                (Printf.sprintf "bad operand type for unary -: '%s'"
                   (type_name v)));
           incr pc
         | I_binop op ->
           let vb = pop () in
           let va = stack.(fr.sp - 1) in
           let r =
             match (va, vb) with
             | Vint x, Vint y ->
               (* Hot comparisons and arithmetic inline; every other
                  shape goes through the shared evaluator. *)
               (match op with
                | Ast.Add -> Vint (x + y)
                | Ast.Sub -> Vint (x - y)
                | Ast.Mul -> Vint (x * y)
                | Ast.Lt -> Vbool (x < y)
                | Ast.Le -> Vbool (x <= y)
                | Ast.Gt -> Vbool (x > y)
                | Ast.Ge -> Vbool (x >= y)
                | Ast.Eq -> Vbool (x = y)
                | Ast.Neq -> Vbool (x <> y)
                | _ -> Rt.eval_binop op va vb)
             | Vstr x, Vstr y ->
               (match op with
                | Ast.Add -> Vstr (x ^ y)
                | Ast.Eq -> Vbool (String.equal x y)
                | Ast.Neq -> Vbool (not (String.equal x y))
                | _ -> Rt.eval_binop op va vb)
             | _ -> Rt.eval_binop op va vb
           in
           stack.(fr.sp - 1) <- r;
           incr pc
         | I_load (slot, name) ->
           let v =
             if slot >= 0 then begin
               let v = stack.(fr.base + slot) in
               if v != unset then v else load_global ctx fr name
             end
             else load_global ctx fr name
           in
           push v;
           incr pc
         | I_load_name name ->
           let v =
             match Hashtbl.find_opt fr.scope.vars name with
             | Some v -> v
             | None ->
               (match scope_lookup fr.root name with
                | Some v -> v
                | None -> Rt.lookup_fallback ctx name)
           in
           push v;
           incr pc
         | I_store (slot, name, pos) ->
           let v = pop () in
           emit_assign ctx pos name v;
           if is_global fr name then Hashtbl.replace fr.root.vars name v
           else stack.(fr.base + slot) <- v;
           incr pc
         | I_store_local (slot, name, pos) ->
           let v = pop () in
           emit_assign ctx pos name v;
           stack.(fr.base + slot) <- v;
           incr pc
         | I_store_direct slot ->
           fr.sp <- fr.sp - 1;
           stack.(fr.base + slot) <- stack.(fr.sp);
           incr pc
         | I_store_name (name, pos) ->
           let v = pop () in
           emit_assign ctx pos name v;
           if is_global fr name then Hashtbl.replace fr.root.vars name v
           else Hashtbl.replace fr.scope.vars name v;
           incr pc
         | I_store_name_direct name ->
           Hashtbl.replace fr.scope.vars name (pop ());
           incr pc
         | I_store_attr (name, pos) ->
           let obj = pop () in
           let v = pop () in
           (match obj with
            | Vobj o ->
              if ctx.Rt.collector.Trace.record_assigns then
                Trace.emit ctx.Rt.collector
                  (Trace.Assign
                     ( Trace.site_of_pos pos,
                       "self." ^ name,
                       Rt.truncate_display (to_display_string v) ));
              Hashtbl.replace o.fields name v
            | v' ->
              raise_error "AttributeError"
                (Printf.sprintf "cannot set attribute on '%s'" (type_name v')));
           incr pc
         | I_store_index ->
           let iv = pop () in
           let cv = pop () in
           let v = pop () in
           store_index cv iv v;
           incr pc
         | I_unpack k ->
           let values =
             match pop () with
             | Vtuple vs -> vs
             | Vlist l -> !l
             | _ -> raise_error "TypeError" "cannot unpack non-sequence"
           in
           if List.length values <> k then
             raise_error "ValueError" "unpacking mismatch";
           (* First element on top: stores pop them in source order. *)
           List.iter push (List.rev values);
           incr pc
         | I_attr name ->
           let v =
             match stack.(fr.sp - 1) with
             | Vobj o ->
               (match Hashtbl.find_opt o.fields name with
                | Some v -> v
                | None ->
                  raise_error "AttributeError"
                    (Printf.sprintf "'%s' object has no attribute '%s'" o.ocls
                       name))
             | Vbuiltin "re_module" -> Vbuiltin ("re." ^ name)
             | Vbuiltin "sys_module" when name = "argv" -> ctx.Rt.argv
             | v ->
               raise_error "AttributeError"
                 (Printf.sprintf "'%s' object has no attribute '%s'"
                    (type_name v) name)
           in
           stack.(fr.sp - 1) <- v;
           incr pc
         | I_index ->
           let iv = pop () in
           let cv = stack.(fr.sp - 1) in
           let r =
             match (cv, iv) with
             | Vstr s, Vint i ->
               let i = Rt.normalize_index (String.length s) i in
               if i < 0 || i >= String.length s then
                 raise_error "IndexError" "string index out of range"
               else Vstr (String.make 1 s.[i])
             | _ -> Rt.index_value cv iv
           in
           stack.(fr.sp - 1) <- r;
           incr pc
         | I_slice_check ->
           (match stack.(fr.sp - 1) with
            | Vint _ | Vnone -> ()
            | v ->
              raise_error "TypeError"
                (Printf.sprintf "slice indices must be integers, not %s"
                   (type_name v)));
           incr pc
         | I_slice (has_lo, has_hi) ->
           let opt present =
             if not present then None
             else
               match pop () with
               | Vint i -> Some i
               | _ -> None (* Vnone, guaranteed by I_slice_check *)
           in
           let lo = opt has_lo in
           let hi = opt has_hi in
           let cv = stack.(fr.sp - 1) in
           let r =
             match cv with
             | Vstr s ->
               let len = String.length s in
               let clamp v = if v < 0 then max 0 (len + v) else min v len in
               let lo = clamp (Option.value lo ~default:0) in
               let hi = clamp (Option.value hi ~default:len) in
               if hi <= lo then Vstr "" else Vstr (String.sub s lo (hi - lo))
             | _ -> Rt.slice_value cv lo hi
           in
           stack.(fr.sp - 1) <- r;
           incr pc
         | I_build_list k ->
           push (Vlist (ref (popn k)));
           incr pc
         | I_build_tuple k ->
           push (Vtuple (popn k));
           incr pc
         | I_build_dict k ->
           (* Pairs were pushed value-then-key (the tree-walker's OCaml
              tuple evaluation order); reassemble in source order. *)
           let rec go k acc =
             if k = 0 then acc
             else begin
               let kv = pop () in
               let vv = pop () in
               go (k - 1) ((kv, vv) :: acc)
             end
           in
           push (Vdict (ref (go k [])));
           incr pc
         | I_call (k, pos) ->
           (match stack.(fr.sp - k - 1) with
            | Vfun closure ->
              (* Bind arguments straight from the operand stack: the
                 cells sit below [vm_top] in the caller's reserved
                 region, so the callee cannot clobber them, and growth
                 blits keep the indices valid. *)
              let args_base = fr.sp - k in
              fr.sp <- fr.sp - k - 1;
              push (call_closure_stack ctx closure None args_base k)
            | Vbound (self, closure) ->
              let args_base = fr.sp - k in
              fr.sp <- fr.sp - k - 1;
              push (call_closure_stack ctx closure (Some self) args_base k)
            | _ ->
              let args = popn k in
              let f = pop () in
              push (call_value ctx f args pos));
           incr pc
         | I_call1 pos ->
           let a = stack.(fr.sp - 1) in
           let f = stack.(fr.sp - 2) in
           (match (f, a) with
            | Vbuiltin "len", Vstr s ->
              fr.sp <- fr.sp - 1;
              stack.(fr.sp - 1) <- Vint (String.length s)
            | Vbuiltin "len", Vlist l ->
              fr.sp <- fr.sp - 1;
              stack.(fr.sp - 1) <- Vint (List.length !l)
            | Vbuiltin "len", Vdict d ->
              fr.sp <- fr.sp - 1;
              stack.(fr.sp - 1) <- Vint (List.length !d)
            | Vbuiltin "len", Vtuple t ->
              fr.sp <- fr.sp - 1;
              stack.(fr.sp - 1) <- Vint (List.length t)
            | Vbuiltin "int", Vstr s ->
              (* Same strict parser as the generic path, so the same
                 ValueError on bad input. *)
              let r = Vint (Rt.int_of_string_strict s) in
              fr.sp <- fr.sp - 1;
              stack.(fr.sp - 1) <- r
            | Vbuiltin "int", Vint i ->
              fr.sp <- fr.sp - 1;
              stack.(fr.sp - 1) <- Vint i
            | Vbuiltin "str", v ->
              let r = Vstr (to_display_string v) in
              fr.sp <- fr.sp - 1;
              stack.(fr.sp - 1) <- r
            | _ ->
              fr.sp <- fr.sp - 2;
              push (call_value ctx f [ a ] pos));
           incr pc
         | I_method (name, k, pos, spec) ->
           (match spec with
            | M_generic ->
              let args = popn k in
              let obj = pop () in
              push (invoke_method ctx obj name args pos spec)
            | _ ->
              (* Specialized receivers rewrite the stack in place —
                 no argument list, no out-of-line dispatch.  Any shape
                 mismatch pops into the generic path, whose errors are
                 byte-identical to the tree-walker's. *)
              let handled =
                match k with
                | 0 ->
                  (match (spec, stack.(fr.sp - 1)) with
                   | M_strip, Vstr s ->
                     stack.(fr.sp - 1) <-
                       Vstr (Rt.strip_chars s None ~left:true ~right:true);
                     true
                   | M_lstrip, Vstr s ->
                     stack.(fr.sp - 1) <-
                       Vstr (Rt.strip_chars s None ~left:true ~right:false);
                     true
                   | M_rstrip, Vstr s ->
                     stack.(fr.sp - 1) <-
                       Vstr (Rt.strip_chars s None ~left:false ~right:true);
                     true
                   | M_upper, Vstr s ->
                     stack.(fr.sp - 1) <- Vstr (String.uppercase_ascii s);
                     true
                   | M_lower, Vstr s ->
                     stack.(fr.sp - 1) <- Vstr (String.lowercase_ascii s);
                     true
                   | M_isdigit, Vstr s ->
                     stack.(fr.sp - 1) <-
                       Vbool (Rt.string_forall Strops.is_digit_char s);
                     true
                   | M_isalpha, Vstr s ->
                     stack.(fr.sp - 1) <-
                       Vbool (Rt.string_forall Strops.is_alpha_char s);
                     true
                   | M_isalnum, Vstr s ->
                     stack.(fr.sp - 1) <-
                       Vbool (Rt.string_forall Strops.is_alnum_char s);
                     true
                   | M_split0, Vstr s ->
                     stack.(fr.sp - 1) <-
                       Vlist
                         (ref
                            (List.map
                               (fun x -> Vstr x)
                               (Rt.split_whitespace s)));
                     true
                   | _ -> false)
                | 1 ->
                  (match (spec, stack.(fr.sp - 2), stack.(fr.sp - 1)) with
                   | M_split1, Vstr s, Vstr sep when sep <> "" ->
                     fr.sp <- fr.sp - 1;
                     stack.(fr.sp - 1) <-
                       Vlist
                         (ref
                            (List.map
                               (fun x -> Vstr x)
                               (Strops.split_on_string sep s)));
                     true
                   | M_startswith, Vstr s, Vstr p ->
                     fr.sp <- fr.sp - 1;
                     stack.(fr.sp - 1) <- Vbool (Strops.starts_with ~prefix:p s);
                     true
                   | M_endswith, Vstr s, Vstr p ->
                     fr.sp <- fr.sp - 1;
                     stack.(fr.sp - 1) <- Vbool (Strops.ends_with ~suffix:p s);
                     true
                   | M_find, Vstr s, Vstr needle ->
                     fr.sp <- fr.sp - 1;
                     stack.(fr.sp - 1) <- Vint (Rt.find_substring s needle);
                     true
                   | M_append, Vlist l, v ->
                     fr.sp <- fr.sp - 1;
                     l := !l @ [ v ];
                     stack.(fr.sp - 1) <- Vnone;
                     true
                   | _ -> false)
                | 2 ->
                  (match
                     (spec, stack.(fr.sp - 3), stack.(fr.sp - 2),
                      stack.(fr.sp - 1))
                   with
                   | M_replace, Vstr s, Vstr o, Vstr nw ->
                     fr.sp <- fr.sp - 2;
                     stack.(fr.sp - 1) <- Vstr (Rt.replace_substring s o nw);
                     true
                   | _ -> false)
                | _ -> false
              in
              if not handled then begin
                let args = popn k in
                let obj = pop () in
                push (invoke_method ctx obj name args pos spec)
              end);
           incr pc
         | I_method_re (name, re, pos) ->
           let s_arg = pop () in
           let pat_v = pop () in
           let obj = pop () in
           (match (obj, pat_v, s_arg) with
            | Vbuiltin "re_module", Vstr pat, Vstr s ->
              push (Rt.re_apply re name pat s)
            | _ -> push (call_method ctx obj name [ pat_v; s_arg ] pos));
           incr pc
         | I_return site ->
           let v = pop () in
           Trace.emit ctx.Rt.collector (Trace.Return (site, Trace.abstract_value v));
           raise (Rt.Return_signal v)
         | I_raise_bare -> raise_error "Exception" "re-raise"
         | I_raise -> Rt.raise_value (pop ())
         | I_fail (kind, msg) -> raise_error kind msg
         | I_for_setup ->
           fr.iters <- Rt.iterate_value (pop ()) :: fr.iters;
           incr pc
         | I_for_next t ->
           (match fr.iters with
            | [] -> assert false
            | items :: rest ->
              (match items with
               | [] ->
                 fr.iters <- rest;
                 pc := t
               | x :: tl ->
                 fr.iters <- tl :: rest;
                 push x;
                 incr pc))
         | I_for_pop t ->
           fr.iters <- List.tl fr.iters;
           pc := t
         | I_break -> raise Rt.Break_signal
         | I_continue -> raise Rt.Continue_signal
         | I_global names ->
           let g =
             match fr.globals with
             | Some g -> g
             | None ->
               let g = Hashtbl.create 4 in
               fr.globals <- Some g;
               g
           in
           List.iter (fun n -> Hashtbl.replace g n ()) names;
           incr pc
         | I_func fn ->
           push (Vfun { cl_func = fn; cl_scope = fr.scope });
           incr pc
         | I_class c ->
           let methods =
             List.map
               (fun m -> (m.Ast.fname, { cl_func = m; cl_scope = fr.scope }))
               c.Ast.methods
           in
           push (Vclass { rt_cname = c.Ast.cname; rt_methods = methods });
           incr pc
         | I_try tc ->
           exec_try ctx fr tc;
           incr pc)
      done;
      running := false
    with
    | Rt.Break_signal when !pc < n && code.c_brk.(!pc) >= 0 ->
      fr.sp <- fr.sp0;
      pc := code.c_brk.(!pc)
    | Rt.Continue_signal when !pc < n && code.c_cont.(!pc) >= 0 ->
      fr.sp <- fr.sp0;
      pc := code.c_cont.(!pc)
  done

and load_global ctx fr name =
  match Hashtbl.find_opt fr.root.vars name with
  | Some v -> v
  | None -> Rt.lookup_fallback ctx name

and emit_assign (ctx : Rt.ctx) pos name v =
  if ctx.Rt.collector.Trace.record_assigns then
    Trace.emit ctx.Rt.collector
      (Trace.Assign
         ( Trace.site_of_pos pos,
           name,
           Rt.truncate_display (to_display_string v) ))

and is_global fr name =
  match fr.globals with Some g -> Hashtbl.mem g name | None -> false

and store_index cv iv v =
  match cv with
  | Vlist l ->
    (match iv with
     | Vint i ->
       let items = !l in
       let i = Rt.normalize_index (List.length items) i in
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
         (type_name cv))

(* Specialized method fast paths; any shape mismatch falls through to
   the generic dispatcher so errors stay byte-identical. *)
and invoke_method ctx obj name args pos spec =
  match (spec, obj, args) with
  | M_strip, Vstr s, [] -> Vstr (Rt.strip_chars s None ~left:true ~right:true)
  | M_lstrip, Vstr s, [] -> Vstr (Rt.strip_chars s None ~left:true ~right:false)
  | M_rstrip, Vstr s, [] -> Vstr (Rt.strip_chars s None ~left:false ~right:true)
  | M_upper, Vstr s, [] -> Vstr (String.uppercase_ascii s)
  | M_lower, Vstr s, [] -> Vstr (String.lowercase_ascii s)
  | M_isdigit, Vstr s, [] ->
    Vbool (Rt.string_forall (fun c -> c >= '0' && c <= '9') s)
  | M_isalpha, Vstr s, [] ->
    Vbool
      (Rt.string_forall
         (fun c -> (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'))
         s)
  | M_isalnum, Vstr s, [] ->
    Vbool
      (Rt.string_forall
         (fun c ->
           (c >= 'a' && c <= 'z')
           || (c >= 'A' && c <= 'Z')
           || (c >= '0' && c <= '9'))
         s)
  | M_split0, Vstr s, [] ->
    Vlist (ref (List.map (fun x -> Vstr x) (Rt.split_whitespace s)))
  | M_split1, Vstr s, [ Vstr sep ] ->
    Vlist (ref (List.map (fun x -> Vstr x) (Rt.split_on_string sep s)))
  | M_replace, Vstr s, [ Vstr o; Vstr nw ] ->
    Vstr (Rt.replace_substring s o nw)
  | M_startswith, Vstr s, [ Vstr p ] -> Vbool (Strops.starts_with ~prefix:p s)
  | M_endswith, Vstr s, [ Vstr p ] -> Vbool (Strops.ends_with ~suffix:p s)
  | M_find, Vstr s, [ Vstr needle ] -> Vint (Rt.find_substring s needle)
  | M_append, Vlist l, [ v ] ->
    l := !l @ [ v ];
    Vnone
  | _ -> call_method ctx obj name args pos

(* The tree-walker's Try statement, replayed over code units: sub-units
   share the frame, so the handler entry restores the operand stack and
   iterator depth the abandoned body left behind. *)
and exec_try ctx fr (tc : Compile.try_code) =
  let sp_save = fr.sp in
  let iters_save = fr.iters in
  let run_finally () =
    match tc.t_finally with Some c -> exec ctx fr c | None -> ()
  in
  try
    exec ctx fr tc.t_body;
    run_finally ()
  with
  | Runtime_error (kind, msg) as exn ->
    fr.sp <- sp_save;
    fr.iters <- iters_save;
    let matching =
      List.find_opt
        (fun (hm, _, _) -> match hm with H_any -> true | H_exact f -> f = kind)
        tc.t_handlers
    in
    (match matching with
     | Some (_, hbind, hcode) ->
       (match hbind with
        | B_none -> ()
        | B_slot slot -> ctx.Rt.vm_stack.(fr.base + slot) <- Vstr msg
        | B_name n -> Hashtbl.replace fr.scope.vars n (Vstr msg));
       (try exec ctx fr hcode
        with e ->
          run_finally ();
          raise e);
       run_finally ()
     | None ->
       run_finally ();
       raise exn)
  | (Rt.Sandbox_limit _ | Rt.Cancelled _ | Rt.Return_signal _
    | Rt.Break_signal | Rt.Continue_signal) as e ->
    run_finally ();
    raise e

(* ------------------------------------------------------------------ *)
(* Calls                                                               *)
(* ------------------------------------------------------------------ *)

and call_value ctx fv args pos =
  match fv with
  | Vfun closure -> call_closure ctx closure None args
  | Vbound (self, closure) -> call_closure ctx closure (Some self) args
  | Vbuiltin name when String.length name > 3 && String.sub name 0 3 = "re." ->
    Rt.re_module_method (String.sub name 3 (String.length name - 3)) args
  | Vbuiltin name when String.length name > 4 && String.sub name 0 4 = "exc:" ->
    Rt.make_exception_object (String.sub name 4 (String.length name - 4)) args
  | Vbuiltin name -> Rt.call_builtin ctx name args
  | Vclass cls -> instantiate ctx cls args pos
  | v ->
    raise_error "TypeError"
      (Printf.sprintf "'%s' object is not callable" (type_name v))

and call_closure ctx closure self args =
  call_closure_gen ctx closure self (List.length args) (fun i ->
      List.nth args i)

and call_closure_stack ctx closure self args_base n_args =
  call_closure_gen ctx closure self n_args (fun i ->
      ctx.Rt.vm_stack.(args_base + i))

and call_closure_gen ctx closure self n_args get_arg =
  ctx.Rt.depth <- ctx.Rt.depth + 1;
  if ctx.Rt.depth > ctx.Rt.config.Rt.max_call_depth then begin
    ctx.Rt.depth <- ctx.Rt.depth - 1;
    raise (Rt.Sandbox_limit "maximum call depth exceeded")
  end;
  let fn = closure.cl_func in
  let cf = Compile.func fn in
  let root = module_scope closure.cl_scope in
  let base = ctx.Rt.vm_top in
  ensure_capacity ctx (base + cf.cf_nslots + cf.cf_stack);
  let stack0 = ctx.Rt.vm_stack in
  for i = base to base + cf.cf_nslots - 1 do
    stack0.(i) <- unset
  done;
  let fr =
    {
      base;
      sp0 = base + cf.cf_nslots;
      sp = base + cf.cf_nslots;
      iters = [];
      globals = None;
      scope = root;
      root;
    }
  in
  ctx.Rt.vm_top <- base + cf.cf_nslots + cf.cf_stack;
  (* Argument binding replicates the tree-walker exactly — including
     NOT decrementing the depth counter when it raises (arity errors,
     missing arguments, failing default expressions), a long-standing
     quirk the parity contract pins down. *)
  (try
     let slot_off, params =
       match self with
       | Some o ->
         (match fn.Ast.params with
          | _ :: rest ->
            ctx.Rt.vm_stack.(base + cf.cf_param_slots.(0)) <- Vobj o;
            (1, rest)
          | [] ->
            raise_error "TypeError"
              (Printf.sprintf "method %s() takes no arguments" fn.Ast.fname))
       | None -> (0, fn.Ast.params)
     in
     let n_params = List.length params in
     if n_args > n_params then
       raise_error "TypeError"
         (Printf.sprintf "%s() takes %d arguments (%d given)" fn.Ast.fname
            n_params n_args);
     List.iteri
       (fun i p ->
         let slot = cf.cf_param_slots.(i + slot_off) in
         if i < n_args then
           ctx.Rt.vm_stack.(base + slot) <- get_arg i
         else
           match List.assoc_opt p cf.cf_defaults with
           | Some dcode ->
             (* Defaults evaluate in the callee frame, ticking like any
                expression. *)
             exec ctx fr dcode;
             fr.sp <- fr.sp - 1;
             ctx.Rt.vm_stack.(base + slot) <- ctx.Rt.vm_stack.(fr.sp)
           | None ->
             raise_error "TypeError"
               (Printf.sprintf "%s() missing required argument '%s'"
                  fn.Ast.fname p))
       params
   with e ->
     ctx.Rt.vm_top <- base;
     raise e);
  let result =
    try
      exec ctx fr cf.cf_code;
      Trace.emit ctx.Rt.collector
        (Trace.Return (Trace.site_of_pos fn.Ast.fpos, Trace.Rvoid));
      Vnone
    with
    | Rt.Return_signal v -> v
    | e ->
      ctx.Rt.depth <- ctx.Rt.depth - 1;
      ctx.Rt.vm_top <- base;
      raise e
  in
  ctx.Rt.depth <- ctx.Rt.depth - 1;
  ctx.Rt.vm_top <- base;
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
  Hashtbl.replace fields "__class__" (Vclass cls);
  Vobj o

and call_method ctx ov name args pos =
  match ov with
  | Vstr s -> Rt.str_method s name args
  | Vlist l -> Rt.list_method l name args
  | Vdict d -> Rt.dict_method d name args
  | Vobj ({ ocls = "file"; _ } as o) -> Rt.file_method o name args
  | Vobj o ->
    (match Hashtbl.find_opt o.fields "__class__" with
     | Some (Vclass cls) ->
       (match List.assoc_opt name cls.rt_methods with
        | Some m -> call_closure ctx m (Some o) args
        | None ->
          (match Hashtbl.find_opt o.fields name with
           | Some fv -> call_value ctx fv args pos
           | None ->
             raise_error "AttributeError"
               (Printf.sprintf "'%s' object has no attribute '%s'" o.ocls name)))
     | _ ->
       raise_error "AttributeError"
         (Printf.sprintf "'%s' object has no attribute '%s'" o.ocls name))
  | Vbuiltin "re_module" -> Rt.re_module_method name args
  | Vbuiltin "sys_module" when name = "exit" -> raise_error "SystemExit" "exit"
  | v ->
    raise_error "AttributeError"
      (Printf.sprintf "'%s' object has no attribute '%s'" (type_name v) name)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let exec_program (ctx : Rt.ctx) (scope : Value.scope) (p : Ast.program) =
  let cp = Compile.program p in
  let base = ctx.Rt.vm_top in
  ensure_capacity ctx (base + cp.cp_code.c_stack);
  let fr =
    {
      base;
      sp0 = base;
      sp = base;
      iters = [];
      globals = None;
      scope;
      root = module_scope scope;
    }
  in
  ctx.Rt.vm_top <- base + cp.cp_code.c_stack;
  (try exec ctx fr cp.cp_code
   with e ->
     ctx.Rt.vm_top <- base;
     raise e);
  ctx.Rt.vm_top <- base

let call_callable (ctx : Rt.ctx) (fv : Value.t) (args : Value.t list) =
  call_value ctx fv args call_pos
