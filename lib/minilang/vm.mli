(** Bytecode executor for {!Compile} programs — the engine behind
    {!Interp}'s public API.

    Parity contract: byte-identical {!Trace.event} streams, outcomes,
    step counts and error messages with the tree-walking reference
    evaluator the test suite keeps in [test/oracle], asserted by
    [test/test_vm.ml] on fuzzed programs, on every specialized opcode
    and on every candidate run of the four-type corpus workload.  Step
    charging goes through {!Rt.tick_n} at exactly the reference's three
    tick sites, so {!Absint.Stepbound} budget hints stay bit-for-bit
    accurate. *)

val exec_program : Rt.ctx -> Value.scope -> Ast.program -> unit
(** Execute a parsed file into [scope] (module mode). *)

val call_method : Rt.ctx -> Value.t -> string -> Value.t list -> Ast.pos -> Value.t
(** Invoke [obj.name(args)] with already-evaluated arguments. *)

val call_callable : Rt.ctx -> Value.t -> Value.t list -> Value.t
(** Call any callable value with already-evaluated arguments, at the
    synthetic [<call>] position used by the driver to invoke candidate
    detector functions. *)
