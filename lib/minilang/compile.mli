(** Lowering of {!Ast} to flat bytecode for {!Vm}.

    Identifiers resolve to frame slots at compile time (module-level
    names stay dynamic, matching the scope chain of the tree-walking
    reference evaluator in [test/oracle]), regex literals pre-compile,
    control flow is jump-threaded, and step charging is batched into
    [I_tick k] instructions placed so {!Rt.tick_n} reproduces the three
    tick sites of {!Rt} bit-for-bit.  Compiled units are cached per domain keyed on the
    physical identity of the AST node (sound because
    [Repolib.Repo.parse_each] shares parsed ASTs across runs). *)

type mspec =
  | M_generic
  | M_strip | M_lstrip | M_rstrip
  | M_upper | M_lower
  | M_isdigit | M_isalpha | M_isalnum
  | M_split0 | M_split1
  | M_replace
  | M_startswith | M_endswith
  | M_join
  | M_find
  | M_append
      (** Specialized method receivers; any runtime shape mismatch falls
          back to generic dispatch for byte-identical errors. *)

type instr =
  | I_tick of int
  | I_const of Value.t
  | I_pop
  | I_jump of int
  | I_and of int
  | I_or of int
  | I_branch of Trace.event * Trace.event * int
  | I_not
  | I_neg
  | I_binop of Ast.binop
  | I_load of int * string
  | I_load_name of string
  | I_store of int * string * Ast.pos
  | I_store_local of int * string * Ast.pos
  | I_store_direct of int
  | I_store_name of string * Ast.pos
  | I_store_name_direct of string
  | I_store_attr of string * Ast.pos
  | I_store_index
  | I_unpack of int
  | I_attr of string
  | I_index
  | I_slice_check
  | I_slice of bool * bool
  | I_build_list of int
  | I_build_tuple of int
  | I_build_dict of int
  | I_call of int * Ast.pos
  | I_call1 of Ast.pos
  | I_method of string * int * Ast.pos * mspec
  | I_method_re of string * Regexlite.t * Ast.pos
  | I_return of Trace.site
  | I_raise_bare
  | I_raise
  | I_fail of string * string
  | I_for_setup
  | I_for_next of int
  | I_for_pop of int
  | I_break
  | I_continue
  | I_global of string list
  | I_func of Ast.func
  | I_class of Ast.cls
  | I_try of try_code

and code = {
  c_instrs : instr array;
  c_brk : int array;
      (** per-pc jump target for a {!Rt.Break_signal} unwinding to this
          pc, [-1] to propagate (loop lives in an enclosing unit) *)
  c_cont : int array;  (** same for {!Rt.Continue_signal} *)
  c_stack : int;  (** max operand-stack depth, nested try units included *)
}

and hmatch = H_any | H_exact of string

and hbind = B_none | B_slot of int | B_name of string

and try_code = {
  t_body : code;
  t_handlers : (hmatch * hbind * code) list;
  t_finally : code option;
}

type cfunc = {
  cf_fn : Ast.func;
  cf_code : code;
  cf_nslots : int;
  cf_param_slots : int array;  (** slot of each param, in order *)
  cf_defaults : (string * code) list;  (** param name -> default expr code *)
  cf_stack : int;  (** max stack need across body and defaults *)
}

type cprog = { cp_prog : Ast.program; cp_code : code }

val func : Ast.func -> cfunc
(** Compile (or fetch from this domain's cache) a function body. *)

val program : Ast.program -> cprog
(** Compile (or fetch from this domain's cache) a module body. *)
