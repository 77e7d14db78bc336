(** Shared MiniScript runtime: the half of the interpreter that does
    not depend on how a program is walked.

    The bytecode {!Vm} and the test suite's tree-walking reference
    evaluator dispatch to the very same value primitives, builtin table,
    string/list/dict/file methods and regex bridge defined here, so
    their observable semantics cannot drift: every error kind, message
    and sandbox limit below is shared verbatim.

    The step-accounting contract also lives here.  A run is charged at
    three — and only three — tick sites ({!Absint.Stepbound} prices
    programs against them): one tick per expression evaluated, one per
    executed statement, one per [for]-loop item.  The VM's compiler
    batches consecutive ticks into one [I_tick k], and {!tick_n} charges
    the batch exactly as [k] single ticks in a row would: identical
    final step counts, identical raise points relative to observable
    events, and the wall-clock deadline probed exactly at step numbers
    divisible by 256.  The reference evaluator charges one tick per
    site and is the executable form of this contract. *)

open Value

exception Sandbox_limit of string
exception Cancelled of string

(* Control-flow signals, shared so a [break] raised inside a callee
   propagates identically through every evaluator's try/finally
   machinery. *)
exception Return_signal of Value.t
exception Break_signal
exception Continue_signal

type config = {
  max_steps : int;
  max_call_depth : int;
}

let default_config = { max_steps = 400_000; max_call_depth = 64 }

let deadline_message = "wall-clock deadline exceeded"

type ctx = {
  collector : Trace.collector;
  config : config;
  mutable steps : int;
  mutable depth : int;
  deadline_ns : int64 option;
      (** absolute CLOCK_MONOTONIC ns (same clock as {!Telemetry.now_ns}) *)
  argv : Value.t;
  stdin_line : string;
  virtual_files : (string * string) list;
      (** the virtual filesystem backing [open()]; invocation variant 6 *)
  mutable printed : string list;  (** reversed capture of print() output *)
  mutable vm_stack : Value.t array;
      (** scratch evaluation stack reused across VM calls in this run *)
  mutable vm_top : int;
      (** watermark: first free cell of [vm_stack]; frames reserve
          [slots + max operand depth] below it *)
}

(* One retired evaluation stack per domain, handed to the next context
   so short runs do not re-grow the array from scratch every time.
   Handing out swaps in [[||]], so a nested context (module load inside
   a run) simply grows its own.  Reuse is unobservable: frames
   initialise their slot range and operand cells are written before
   they are read. *)
let stack_pool : Value.t array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [||])

let create_ctx ?(config = default_config) ?(argv = []) ?(stdin_line = "")
    ?(virtual_files = []) ?deadline_ns collector =
  let stack = Domain.DLS.get stack_pool in
  if stack != [||] then Domain.DLS.set stack_pool [||];
  {
    collector;
    config;
    steps = 0;
    depth = 0;
    deadline_ns;
    argv = Vlist (ref (List.map (fun s -> Vstr s) argv));
    stdin_line;
    virtual_files;
    printed = [];
    vm_stack = stack;
    vm_top = 0;
  }

(** Return a finished context's stack to the per-domain pool. *)
let retire_ctx ctx =
  if Array.length ctx.vm_stack > Array.length (Domain.DLS.get stack_pool) then
    Domain.DLS.set stack_pool ctx.vm_stack

(** Charge [k] ticks at once.  A single tick adds one step, raises
    [Sandbox_limit] past [max_steps], and probes the wall-clock deadline
    when the step count is a multiple of 256, so a run never pays one
    clock syscall per statement.  [tick_n ctx k] is equivalent to [k]
    such ticks with nothing observable between them:
    - budget: a batch crossing [max_steps] leaves [steps = max_steps+1]
      and raises, exactly where the [k]-th sequential tick would have;
    - deadline: probed at the first multiple of 256 inside the batch,
      and on expiry [steps] is set to that multiple. *)
let tick_n ctx k =
  if k > 0 then begin
    let s = ctx.steps in
    let maxs = ctx.config.max_steps in
    if s + k > maxs then begin
      ctx.steps <- maxs + 1;
      raise (Sandbox_limit "step budget exhausted")
    end;
    ctx.steps <- s + k;
    match ctx.deadline_ns with
    | Some d ->
      (* first multiple of 256 in (s, s+k] *)
      let m = ((s lsr 8) + 1) lsl 8 in
      if m <= s + k && Telemetry.now_ns () >= d then begin
        ctx.steps <- m;
        raise (Cancelled deadline_message)
      end
    | None -> ()
  end

let known_exception_kinds =
  [ "ValueError"; "TypeError"; "IndexError"; "KeyError"; "AttributeError";
    "ZeroDivisionError"; "AssertionError"; "NameError"; "IOError";
    "Exception"; "RuntimeError"; "StopIteration"; "OverflowError" ]

(* ------------------------------------------------------------------ *)
(* Arithmetic and operators                                            *)
(* ------------------------------------------------------------------ *)

let num_binop op a b =
  let float_op x y =
    match op with
    | Ast.Add -> Vfloat (x +. y)
    | Ast.Sub -> Vfloat (x -. y)
    | Ast.Mul -> Vfloat (x *. y)
    | Ast.Div ->
      if y = 0.0 then raise_error "ZeroDivisionError" "float division by zero"
      else Vfloat (x /. y)
    | Ast.Floordiv ->
      if y = 0.0 then raise_error "ZeroDivisionError" "float floor division by zero"
      else Vfloat (floor (x /. y))
    | Ast.Mod ->
      if y = 0.0 then raise_error "ZeroDivisionError" "float modulo by zero"
      else
        let r = Float.rem x y in
        Vfloat (if r <> 0.0 && (r < 0.0) <> (y < 0.0) then r +. y else r)
    | Ast.Pow -> Vfloat (Float.pow x y)
    | _ -> assert false
  in
  match (a, b) with
  | Vint x, Vint y ->
    (match op with
     | Ast.Add -> Vint (x + y)
     | Ast.Sub -> Vint (x - y)
     | Ast.Mul -> Vint (x * y)
     | Ast.Div ->
       if y = 0 then raise_error "ZeroDivisionError" "division by zero"
       else Vfloat (float_of_int x /. float_of_int y)
     | Ast.Floordiv ->
       if y = 0 then raise_error "ZeroDivisionError" "integer division by zero"
       else
         (* Python floor division *)
         let q = x / y and r = x mod y in
         Vint (if r <> 0 && (r < 0) <> (y < 0) then q - 1 else q)
     | Ast.Mod ->
       if y = 0 then raise_error "ZeroDivisionError" "integer modulo by zero"
       else
         let r = x mod y in
         Vint (if r <> 0 && (r < 0) <> (y < 0) then r + y else r)
     | Ast.Pow ->
       if y < 0 then float_op (float_of_int x) (float_of_int y)
       else
         let rec pow acc b e = if e = 0 then acc else pow (acc * b) b (e - 1) in
         Vint (pow 1 x y)
     | _ -> assert false)
  | (Vint _ | Vfloat _), (Vint _ | Vfloat _) ->
    let f = function Vint i -> float_of_int i | Vfloat f -> f | _ -> 0.0 in
    float_op (f a) (f b)
  | _ ->
    raise_error "TypeError"
      (Printf.sprintf "unsupported operand types for %s: %s and %s"
         (Ast.binop_to_string op) (type_name a) (type_name b))

let eval_binop op a b =
  match op with
  | Ast.Add ->
    (match (a, b) with
     | Vstr x, Vstr y -> Vstr (x ^ y)
     | Vlist x, Vlist y -> Vlist (ref (!x @ !y))
     | Vtuple x, Vtuple y -> Vtuple (x @ y)
     | _ -> num_binop op a b)
  | Ast.Mul ->
    (match (a, b) with
     | Vstr s, Vint n | Vint n, Vstr s ->
       if n <= 0 then Vstr ""
       else begin
         if n * String.length s > 1_000_000 then
           raise (Sandbox_limit "string repetition too large");
         let buf = Buffer.create (n * String.length s) in
         for _ = 1 to n do Buffer.add_string buf s done;
         Vstr (Buffer.contents buf)
       end
     | Vlist l, Vint n | Vint n, Vlist l ->
       if n <= 0 then Vlist (ref [])
       else begin
         if n * List.length !l > 100_000 then
           raise (Sandbox_limit "list repetition too large");
         let rec rep acc k = if k = 0 then acc else rep (!l @ acc) (k - 1) in
         Vlist (ref (rep [] n))
       end
     | _ -> num_binop op a b)
  | Ast.Sub | Ast.Div | Ast.Floordiv | Ast.Mod | Ast.Pow -> num_binop op a b
  | Ast.Bxor | Ast.Band | Ast.Bor | Ast.Shl | Ast.Shr ->
    (match (a, b) with
     | Vint x, Vint y ->
       Vint
         (match op with
          | Ast.Bxor -> x lxor y
          | Ast.Band -> x land y
          | Ast.Bor -> x lor y
          | Ast.Shl -> if y < 0 || y > 62 then 0 else x lsl y
          | Ast.Shr -> if y < 0 || y > 62 then 0 else x asr y
          | _ -> assert false)
     | _ ->
       raise_error "TypeError"
         (Printf.sprintf "unsupported operand types for %s: %s and %s"
            (Ast.binop_to_string op) (type_name a) (type_name b)))
  | Ast.Eq -> Vbool (equal a b)
  | Ast.Neq -> Vbool (not (equal a b))
  | Ast.Lt -> Vbool (compare_values a b < 0)
  | Ast.Le -> Vbool (compare_values a b <= 0)
  | Ast.Gt -> Vbool (compare_values a b > 0)
  | Ast.Ge -> Vbool (compare_values a b >= 0)
  | Ast.In | Ast.Not_in ->
    let mem =
      match b with
      | Vstr hay ->
        (match a with
         | Vstr needle ->
           let nl = String.length needle and hl = String.length hay in
           nl = 0
           || (let rec go i =
                 i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
               in
               go 0)
         | _ ->
           raise_error "TypeError" "'in <string>' requires string operand")
      | Vlist l -> List.exists (equal a) !l
      | Vtuple t -> List.exists (equal a) t
      | Vdict d -> List.exists (fun (k, _) -> equal a k) !d
      | _ ->
        raise_error "TypeError"
          (Printf.sprintf "argument of type %s is not iterable" (type_name b))
    in
    Vbool (if op = Ast.In then mem else not mem)
  | Ast.And | Ast.Or -> assert false  (* short-circuit: the evaluator's job *)

(* ------------------------------------------------------------------ *)
(* Indexing, slicing, iteration                                        *)
(* ------------------------------------------------------------------ *)

let normalize_index len i = if i < 0 then len + i else i

let index_value container idx =
  match (container, idx) with
  | Vstr s, Vint i ->
    let i = normalize_index (String.length s) i in
    if i < 0 || i >= String.length s then
      raise_error "IndexError" "string index out of range"
    else Vstr (String.make 1 s.[i])
  | Vlist l, Vint i ->
    let items = !l in
    let i = normalize_index (List.length items) i in
    (match List.nth_opt items i with
     | Some v when i >= 0 -> v
     | _ -> raise_error "IndexError" "list index out of range")
  | Vtuple t, Vint i ->
    let i = normalize_index (List.length t) i in
    (match List.nth_opt t i with
     | Some v when i >= 0 -> v
     | _ -> raise_error "IndexError" "tuple index out of range")
  | Vdict d, k ->
    (match List.find_opt (fun (k', _) -> equal k k') !d with
     | Some (_, v) -> v
     | None -> raise_error "KeyError" (to_display_string k))
  | _ ->
    raise_error "TypeError"
      (Printf.sprintf "%s indices must be integers" (type_name container))

let slice_value container lo hi =
  let clamp len v = if v < 0 then max 0 (len + v) else min v len in
  match container with
  | Vstr s ->
    let len = String.length s in
    let lo = clamp len (Option.value lo ~default:0) in
    let hi = clamp len (Option.value hi ~default:len) in
    if hi <= lo then Vstr "" else Vstr (String.sub s lo (hi - lo))
  | Vlist l ->
    let items = !l in
    let len = List.length items in
    let lo = clamp len (Option.value lo ~default:0) in
    let hi = clamp len (Option.value hi ~default:len) in
    Vlist (ref (List.filteri (fun i _ -> i >= lo && i < hi) items))
  | Vtuple t ->
    let len = List.length t in
    let lo = clamp len (Option.value lo ~default:0) in
    let hi = clamp len (Option.value hi ~default:len) in
    Vtuple (List.filteri (fun i _ -> i >= lo && i < hi) t)
  | _ ->
    raise_error "TypeError"
      (Printf.sprintf "%s is not sliceable" (type_name container))

let iterate_value v : Value.t list =
  match v with
  | Vstr s -> List.init (String.length s) (fun i -> Vstr (String.make 1 s.[i]))
  | Vlist l -> !l
  | Vtuple t -> t
  | Vdict d -> List.map fst !d
  | _ ->
    raise_error "TypeError"
      (Printf.sprintf "%s object is not iterable" (type_name v))

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)
(* ------------------------------------------------------------------ *)

let int_of_string_strict ?(base = 10) s =
  let s = String.trim s in
  if s = "" then raise_error "ValueError" "invalid literal for int()";
  let sign, digits =
    if s.[0] = '-' then (-1, String.sub s 1 (String.length s - 1))
    else if s.[0] = '+' then (1, String.sub s 1 (String.length s - 1))
    else (1, s)
  in
  if digits = "" then raise_error "ValueError" "invalid literal for int()";
  let digit_val c =
    if c >= '0' && c <= '9' then Char.code c - Char.code '0'
    else if c >= 'a' && c <= 'z' then Char.code c - Char.code 'a' + 10
    else if c >= 'A' && c <= 'Z' then Char.code c - Char.code 'A' + 10
    else 99
  in
  let acc = ref 0 in
  String.iter
    (fun c ->
      let d = digit_val c in
      if d >= base then
        raise_error "ValueError"
          (Printf.sprintf "invalid literal for int() with base %d: '%s'" base s);
      acc := (!acc * base) + d)
    digits;
  sign * !acc

let float_of_string_strict s =
  let s = String.trim s in
  let valid =
    s <> ""
    && (let seen_digit = ref false and seen_dot = ref false
        and seen_e = ref false and ok = ref true in
        String.iteri
          (fun i c ->
            match c with
            | '0' .. '9' -> seen_digit := true
            | '-' | '+' ->
              if not
                   (i = 0
                   || (i > 0 && (s.[i - 1] = 'e' || s.[i - 1] = 'E')))
              then ok := false
            | '.' ->
              if !seen_dot || !seen_e then ok := false else seen_dot := true
            | 'e' | 'E' ->
              if !seen_e || not !seen_digit then ok := false
              else seen_e := true
            | _ -> ok := false)
          s;
        !ok && !seen_digit)
  in
  if not valid then
    raise_error "ValueError"
      (Printf.sprintf "could not convert string to float: '%s'" s)
  else
    match float_of_string_opt s with
    | Some f -> f
    | None ->
      raise_error "ValueError"
        (Printf.sprintf "could not convert string to float: '%s'" s)

(* ------------------------------------------------------------------ *)
(* String / list / dict methods                                        *)
(* ------------------------------------------------------------------ *)

(* The string primitives live in {!Strops} so the interpreter-free fast
   path (compiled absint summaries) shares their exact semantics. *)
let strip_chars = Strops.strip_chars

let split_on_string sep s =
  if sep = "" then raise_error "ValueError" "empty separator"
  else Strops.split_on_string sep s

let split_whitespace = Strops.split_whitespace
let find_substring = Strops.find_substring
let replace_substring = Strops.replace_substring
let string_forall = Strops.string_forall

let str_method s name args =
  let arg_str i =
    match List.nth_opt args i with
    | Some (Vstr x) -> x
    | Some v ->
      raise_error "TypeError"
        (Printf.sprintf "method %s expected str, got %s" name (type_name v))
    | None -> raise_error "TypeError" (Printf.sprintf "method %s: missing argument" name)
  in
  match (name, args) with
  | "upper", [] -> Vstr (String.uppercase_ascii s)
  | "lower", [] -> Vstr (String.lowercase_ascii s)
  | "strip", [] -> Vstr (strip_chars s None ~left:true ~right:true)
  | "strip", [ Vstr cs ] -> Vstr (strip_chars s (Some cs) ~left:true ~right:true)
  | "lstrip", [] -> Vstr (strip_chars s None ~left:true ~right:false)
  | "lstrip", [ Vstr cs ] -> Vstr (strip_chars s (Some cs) ~left:true ~right:false)
  | "rstrip", [] -> Vstr (strip_chars s None ~left:false ~right:true)
  | "rstrip", [ Vstr cs ] -> Vstr (strip_chars s (Some cs) ~left:false ~right:true)
  | "split", [] -> Vlist (ref (List.map (fun x -> Vstr x) (split_whitespace s)))
  | "split", [ Vstr sep ] ->
    Vlist (ref (List.map (fun x -> Vstr x) (split_on_string sep s)))
  | "replace", [ Vstr o; Vstr n ] -> Vstr (replace_substring s o n)
  | "startswith", [ Vstr p ] ->
    Vbool (String.length s >= String.length p
           && String.sub s 0 (String.length p) = p)
  | "endswith", [ Vstr p ] ->
    let pl = String.length p and sl = String.length s in
    Vbool (sl >= pl && String.sub s (sl - pl) pl = p)
  | "find", [ Vstr needle ] -> Vint (find_substring s needle)
  | "find", [ Vstr needle; Vint from ] -> Vint (find_substring ~from s needle)
  | "rfind", [ Vstr needle ] ->
    let nl = String.length needle in
    let rec go i best =
      if i + nl > String.length s then best
      else if String.sub s i nl = needle then go (i + 1) i
      else go (i + 1) best
    in
    Vint (go 0 (-1))
  | "index", [ Vstr needle ] ->
    let i = find_substring s needle in
    if i < 0 then raise_error "ValueError" "substring not found" else Vint i
  | "count", [ Vstr needle ] ->
    if needle = "" then Vint (String.length s + 1)
    else
      let nl = String.length needle in
      let rec go i acc =
        let j = find_substring ~from:i s needle in
        if j < 0 then acc else go (j + nl) (acc + 1)
      in
      Vint (go 0 0)
  | "join", [ Vlist items ] ->
    let parts =
      List.map
        (function
          | Vstr x -> x
          | v ->
            raise_error "TypeError"
              (Printf.sprintf "join: expected str, got %s" (type_name v)))
        !items
    in
    Vstr (String.concat s parts)
  | "isdigit", [] -> Vbool (string_forall (fun c -> c >= '0' && c <= '9') s)
  | "isalpha", [] ->
    Vbool (string_forall (fun c -> (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) s)
  | "isalnum", [] ->
    Vbool
      (string_forall
         (fun c ->
           (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
           || (c >= '0' && c <= '9'))
         s)
  | "isupper", [] ->
    Vbool
      (String.exists (fun c -> c >= 'A' && c <= 'Z') s
       && not (String.exists (fun c -> c >= 'a' && c <= 'z') s))
  | "islower", [] ->
    Vbool
      (String.exists (fun c -> c >= 'a' && c <= 'z') s
       && not (String.exists (fun c -> c >= 'A' && c <= 'Z') s))
  | "isspace", [] ->
    Vbool (string_forall (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r') s)
  | "zfill", [ Vint w ] ->
    let l = String.length s in
    if l >= w then Vstr s else Vstr (String.make (w - l) '0' ^ s)
  | "title", [] ->
    let b = Bytes.of_string (String.lowercase_ascii s) in
    let prev_alpha = ref false in
    Bytes.iteri
      (fun i c ->
        let alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
        if alpha && not !prev_alpha then
          Bytes.set b i (Char.uppercase_ascii c);
        prev_alpha := alpha)
      b;
    Vstr (Bytes.to_string b)
  | "format", _ ->
    (* Sequential {} substitution, enough for corpus diagnostics. *)
    let parts = split_on_string "{}" s in
    let rec weave parts args acc =
      match (parts, args) with
      | [ last ], _ -> List.rev (last :: acc)
      | p :: rest, a :: args' ->
        weave rest args' (to_display_string a :: p :: acc)
      | p :: rest, [] -> weave rest [] ("" :: p :: acc)
      | [], _ -> List.rev acc
    in
    Vstr (String.concat "" (weave parts args []))
  | ("split" | "replace" | "startswith" | "endswith" | "join"), _ ->
    ignore (arg_str 0);
    raise_error "TypeError" (Printf.sprintf "bad arguments to str.%s" name)
  | _ ->
    raise_error "AttributeError"
      (Printf.sprintf "'str' object has no attribute '%s'" name)

let list_method l name args =
  match (name, args) with
  | "append", [ v ] -> l := !l @ [ v ]; Vnone
  | "extend", [ Vlist other ] -> l := !l @ !other; Vnone
  | "insert", [ Vint i; v ] ->
    let items = !l in
    let i = max 0 (min (List.length items) (normalize_index (List.length items) i)) in
    l := List.filteri (fun j _ -> j < i) items @ [ v ]
         @ List.filteri (fun j _ -> j >= i) items;
    Vnone
  | "pop", [] ->
    (match List.rev !l with
     | [] -> raise_error "IndexError" "pop from empty list"
     | last :: rest -> l := List.rev rest; last)
  | "pop", [ Vint i ] ->
    let items = !l in
    let i = normalize_index (List.length items) i in
    (match List.nth_opt items i with
     | Some v when i >= 0 ->
       l := List.filteri (fun j _ -> j <> i) items;
       v
     | _ -> raise_error "IndexError" "pop index out of range")
  | "index", [ v ] ->
    let rec go i = function
      | [] -> raise_error "ValueError" "value not in list"
      | x :: _ when equal x v -> Vint i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 !l
  | "count", [ v ] -> Vint (List.length (List.filter (equal v) !l))
  | "reverse", [] -> l := List.rev !l; Vnone
  | "sort", [] -> l := List.sort compare_values !l; Vnone
  | "remove", [ v ] ->
    let rec go = function
      | [] -> raise_error "ValueError" "value not in list"
      | x :: tl when equal x v -> tl
      | x :: tl -> x :: go tl
    in
    l := go !l;
    Vnone
  | _ ->
    raise_error "AttributeError"
      (Printf.sprintf "'list' object has no attribute '%s'" name)

let dict_method d name args =
  match (name, args) with
  | "get", [ k ] ->
    (match List.find_opt (fun (k', _) -> equal k k') !d with
     | Some (_, v) -> v
     | None -> Vnone)
  | "get", [ k; default ] ->
    (match List.find_opt (fun (k', _) -> equal k k') !d with
     | Some (_, v) -> v
     | None -> default)
  | "keys", [] -> Vlist (ref (List.map fst !d))
  | "values", [] -> Vlist (ref (List.map snd !d))
  | "items", [] -> Vlist (ref (List.map (fun (k, v) -> Vtuple [ k; v ]) !d))
  | "has_key", [ k ] -> Vbool (List.exists (fun (k', _) -> equal k k') !d)
  | "update", [ Vdict other ] ->
    List.iter
      (fun (k, v) ->
        d := (k, v) :: List.filter (fun (k', _) -> not (equal k k')) !d)
      !other;
    Vnone
  | "pop", [ k ] ->
    (match List.find_opt (fun (k', _) -> equal k k') !d with
     | Some (_, v) ->
       d := List.filter (fun (k', _) -> not (equal k k')) !d;
       v
     | None -> raise_error "KeyError" (to_display_string k))
  | _ ->
    raise_error "AttributeError"
      (Printf.sprintf "'dict' object has no attribute '%s'" name)

(* ------------------------------------------------------------------ *)
(* Regex bridge (the "re" module)                                      *)
(* ------------------------------------------------------------------ *)

(* Domain-local so concurrent interpreter runs (lib/exec tracing pool)
   never contend on — or corrupt — a shared table; each domain compiles
   a pattern at most once. *)
let compiled_regex_cache : (string, Regexlite.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let compile_regex pat =
  let cache = Domain.DLS.get compiled_regex_cache in
  match Hashtbl.find_opt cache pat with
  | Some re -> Some re
  | None ->
    (match Regexlite.parse pat with
     | re ->
       Hashtbl.add cache pat re;
       Some re
     | exception Regexlite.Parse_error _ -> None)

(** The four regex entry points, shared with the VM's pre-compiled
    pattern fast path ({!Compile} pools [Regexlite.t] values for regex
    literals), so both routes produce identical matches and identical
    [ValueError]s on unparseable patterns. *)
let re_apply re name pat s =
  match name with
  | "match" ->
    (match Regexlite.match_prefix re s with
     | Some j -> Vstr (String.sub s 0 j)
     | None -> Vnone)
  | "fullmatch" -> if Regexlite.full_match re s then Vstr s else Vnone
  | "search" ->
    (match Regexlite.search re s with
     | Some (i, j) -> Vstr (String.sub s i (j - i))
     | None -> Vnone)
  | "findall" ->
    let n = String.length s in
    let rec go i acc =
      if i > n then List.rev acc
      else
        match Regexlite.match_at re s i with
        | Some j when j > i -> go j (Vstr (String.sub s i (j - i)) :: acc)
        | Some j -> go (j + 1) acc
        | None -> go (i + 1) acc
    in
    Vlist (ref (go 0 []))
  | _ ->
    ignore pat;
    raise_error "AttributeError"
      (Printf.sprintf "re module has no attribute '%s'" name)

let re_module_method name args =
  let pat, s =
    match args with
    | [ Vstr pat; Vstr s ] -> (pat, s)
    | [ Vstr _; v ] | [ v; _ ] ->
      raise_error "TypeError"
        (Printf.sprintf "re.%s expected strings, got %s" name (type_name v))
    | _ -> raise_error "TypeError" (Printf.sprintf "re.%s expects 2 arguments" name)
  in
  match compile_regex pat with
  | None -> raise_error "ValueError" ("bad regular expression: " ^ pat)
  | Some re -> re_apply re name pat s

(* ------------------------------------------------------------------ *)
(* Builtin free functions                                              *)
(* ------------------------------------------------------------------ *)

let builtin_names =
  [ "len"; "int"; "float"; "str"; "bool"; "ord"; "chr"; "abs"; "min"; "max";
    "sum"; "range"; "round"; "print"; "input"; "open"; "sorted"; "reversed";
    "list"; "dict"; "tuple"; "isdigit"; "type"; "enumerate"; "zip" ]

let call_builtin ctx name args =
  match (name, args) with
  | "len", [ Vstr s ] -> Vint (String.length s)
  | "len", [ Vlist l ] -> Vint (List.length !l)
  | "len", [ Vdict d ] -> Vint (List.length !d)
  | "len", [ Vtuple t ] -> Vint (List.length t)
  | "len", [ v ] ->
    raise_error "TypeError"
      (Printf.sprintf "object of type '%s' has no len()" (type_name v))
  | "int", [ Vstr s ] -> Vint (int_of_string_strict s)
  | "int", [ Vstr s; Vint base ] -> Vint (int_of_string_strict ~base s)
  | "int", [ Vint i ] -> Vint i
  | "int", [ Vfloat f ] -> Vint (int_of_float f)
  | "int", [ Vbool b ] -> Vint (if b then 1 else 0)
  | "int", [ v ] ->
    raise_error "TypeError"
      (Printf.sprintf "int() argument must be a string or number, not '%s'"
         (type_name v))
  | "float", [ Vstr s ] -> Vfloat (float_of_string_strict s)
  | "float", [ Vint i ] -> Vfloat (float_of_int i)
  | "float", [ Vfloat f ] -> Vfloat f
  | "float", [ v ] ->
    raise_error "TypeError"
      (Printf.sprintf "float() argument must be a string or number, not '%s'"
         (type_name v))
  | "str", [ v ] -> Vstr (to_display_string v)
  | "str", [] -> Vstr ""
  | "bool", [ v ] -> Vbool (truthy v)
  | "ord", [ Vstr s ] when String.length s = 1 -> Vint (Char.code s.[0])
  | "ord", [ _ ] ->
    raise_error "TypeError" "ord() expected a character"
  | "chr", [ Vint i ] ->
    if i < 0 || i > 255 then raise_error "ValueError" "chr() arg out of range"
    else Vstr (String.make 1 (Char.chr i))
  | "abs", [ Vint i ] -> Vint (abs i)
  | "abs", [ Vfloat f ] -> Vfloat (Float.abs f)
  | "min", [ Vlist l ] ->
    (match !l with
     | [] -> raise_error "ValueError" "min() of empty sequence"
     | hd :: tl -> List.fold_left (fun a b -> if compare_values b a < 0 then b else a) hd tl)
  | "min", (_ :: _ :: _ as vs) ->
    List.fold_left
      (fun a b -> if compare_values b a < 0 then b else a)
      (List.hd vs) (List.tl vs)
  | "max", [ Vlist l ] ->
    (match !l with
     | [] -> raise_error "ValueError" "max() of empty sequence"
     | hd :: tl -> List.fold_left (fun a b -> if compare_values b a > 0 then b else a) hd tl)
  | "max", (_ :: _ :: _ as vs) ->
    List.fold_left
      (fun a b -> if compare_values b a > 0 then b else a)
      (List.hd vs) (List.tl vs)
  | "sum", [ Vlist l ] ->
    List.fold_left (fun acc v -> num_binop Ast.Add acc v) (Vint 0) !l
  | "range", [ Vint n ] ->
    if n > 100_000 then raise (Sandbox_limit "range too large");
    Vlist (ref (List.init (max 0 n) (fun i -> Vint i)))
  | "range", [ Vint a; Vint b ] ->
    if b - a > 100_000 then raise (Sandbox_limit "range too large");
    Vlist (ref (List.init (max 0 (b - a)) (fun i -> Vint (a + i))))
  | "range", [ Vint a; Vint b; Vint step ] ->
    if step = 0 then raise_error "ValueError" "range() arg 3 must not be zero";
    let count =
      if step > 0 then max 0 ((b - a + step - 1) / step)
      else max 0 ((a - b + (-step) - 1) / -step)
    in
    if count > 100_000 then raise (Sandbox_limit "range too large");
    Vlist (ref (List.init count (fun i -> Vint (a + (i * step)))))
  | "round", [ Vfloat f ] -> Vint (int_of_float (Float.round f))
  | "round", [ Vint i ] -> Vint i
  | "round", [ Vfloat f; Vint d ] ->
    let m = Float.pow 10.0 (float_of_int d) in
    Vfloat (Float.round (f *. m) /. m)
  | "print", vs ->
    ctx.printed <-
      String.concat " " (List.map to_display_string vs) :: ctx.printed;
    Vnone
  | "input", ([] | [ Vstr _ ]) -> Vstr ctx.stdin_line
  | "open", (Vstr path :: _) ->
    (match List.assoc_opt path ctx.virtual_files with
     | Some content ->
       let fields = Hashtbl.create 4 in
       Hashtbl.replace fields "__path" (Vstr path);
       Hashtbl.replace fields "__content" (Vstr content);
       Vobj { ocls = "file"; fields }
     | None -> raise_error "IOError" ("no such file: " ^ path))
  | "sorted", [ Vlist l ] -> Vlist (ref (List.sort compare_values !l))
  | "sorted", [ Vstr s ] ->
    Vlist
      (ref
         (List.sort compare_values
            (List.init (String.length s) (fun i -> Vstr (String.make 1 s.[i])))))
  | "reversed", [ Vlist l ] -> Vlist (ref (List.rev !l))
  | "reversed", [ Vstr s ] ->
    let n = String.length s in
    Vstr (String.init n (fun i -> s.[n - 1 - i]))
  | "list", [] -> Vlist (ref [])
  | "list", [ v ] -> Vlist (ref (iterate_value v))
  | "dict", [] -> Vdict (ref [])
  | "tuple", [ v ] -> Vtuple (iterate_value v)
  | "type", [ v ] -> Vstr (type_name v)
  | "enumerate", [ v ] ->
    Vlist (ref (List.mapi (fun i x -> Vtuple [ Vint i; x ]) (iterate_value v)))
  | "zip", [ a; b ] ->
    let xa = iterate_value a and xb = iterate_value b in
    let rec go xs ys acc =
      match (xs, ys) with
      | x :: xs', y :: ys' -> go xs' ys' (Vtuple [ x; y ] :: acc)
      | _ -> List.rev acc
    in
    Vlist (ref (go xa xb []))
  | _, _ ->
    raise_error "TypeError"
      (Printf.sprintf "bad arguments to builtin %s()" name)

let file_method o name args =
  let content =
    match Hashtbl.find_opt o.fields "__content" with
    | Some (Vstr c) -> c
    | _ -> ""
  in
  match (name, args) with
  | "read", [] -> Vstr content
  | "readline", [] ->
    (match String.index_opt content '\n' with
     | Some i -> Vstr (String.sub content 0 (i + 1))
     | None -> Vstr content)
  | "readlines", [] ->
    Vlist
      (ref
         (String.split_on_char '\n' content
          |> List.filter (fun l -> l <> "")
          |> List.map (fun l -> Vstr l)))
  | "close", [] -> Vnone
  | "write", [ Vstr _ ] -> Vnone  (* writes are swallowed by the sandbox *)
  | _ ->
    raise_error "AttributeError"
      (Printf.sprintf "'file' object has no attribute '%s'" name)

(* ------------------------------------------------------------------ *)
(* Name fallback and raise, shared by every evaluator                  *)
(* ------------------------------------------------------------------ *)

module String_tbl = Hashtbl.Make (String)

type fallback = Fixed of Value.t | Argv

(* Every name {!lookup_fallback} resolves, entered lowest precedence
   first so that [replace] leaves each name's highest-precedence
   meaning.  Read-only once built, so the tracing domains share it. *)
let fallbacks : fallback String_tbl.t =
  let tbl = String_tbl.create 64 in
  let fixed name v = String_tbl.replace tbl name (Fixed v) in
  List.iter (fun k -> fixed k (Vbuiltin ("exc:" ^ k))) known_exception_kinds;
  String_tbl.replace tbl "argv" Argv;
  fixed "sys" (Vbuiltin "sys_module");
  fixed "re" (Vbuiltin "re_module");
  List.iter (fun n -> fixed n (Vbuiltin n)) builtin_names;
  tbl

(** Resolve [name] after local and module scope both missed: builtins,
    the [re]/[sys] pseudo-modules, bare [argv], exception-kind
    constructors — or a [NameError], in that order. *)
let lookup_fallback ctx name =
  match String_tbl.find_opt fallbacks name with
  | Some (Fixed v) -> v
  | Some Argv -> ctx.argv
  | None ->
    raise_error "NameError" (Printf.sprintf "name '%s' is not defined" name)

(** Build the exception object [ValueError("msg")] etc. constructs. *)
let make_exception_object kind args =
  let fields = Hashtbl.create 2 in
  let msg =
    match args with
    | [ v ] -> to_display_string v
    | [] -> ""
    | vs -> String.concat ", " (List.map to_display_string vs)
  in
  Hashtbl.replace fields "message" (Vstr msg);
  Vobj { ocls = kind; fields }

(** The [raise e] statement's value dispatch, shared verbatim. *)
let raise_value v : 'a =
  match v with
  | Vstr msg -> raise_error "Exception" msg
  | Vobj o ->
    let msg =
      match Hashtbl.find_opt o.fields "message" with
      | Some (Vstr m) -> m
      | _ -> "user exception object"
    in
    raise_error o.ocls msg
  | Vbuiltin name when String.length name > 4 && String.sub name 0 4 = "exc:" ->
    raise_error (String.sub name 4 (String.length name - 4)) ""
  | v -> raise_error "Exception" (to_display_string v)

let truncate_display s =
  if String.length s > 60 then String.sub s 0 60 ^ "…" else s
