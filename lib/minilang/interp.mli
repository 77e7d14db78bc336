(** MiniScript execution on the bytecode VM ({!Compile} + {!Vm}) with
    execution tracing and sandboxing.

    Every if/elif/while/ternary condition emits a {!Trace.Branch} event,
    every return a {!Trace.Return} with the abstracted value, uncaught
    exceptions a {!Trace.Exception}, and (when enabled) assignments a
    {!Trace.Assign} — the native equivalent of the paper's byte-code
    instrumentation (Appendix D.2).  A step budget and call-depth cap
    replace the paper's per-function watchdog; exceeding them raises
    {!Sandbox_limit}, which MiniScript [try/except] cannot catch.  The
    test suite checks the VM against a tree-walking reference evaluator
    that runs every program straight off the AST. *)

exception Sandbox_limit of string

exception Cancelled of string
(** A run past its wall-clock deadline, raised from the step-accounting
    path.  Like {!Sandbox_limit}, it is deliberately not catchable by
    MiniScript [try/except]. *)

type config = {
  max_steps : int;
  max_call_depth : int;
}

val default_config : config

type ctx = Rt.ctx
(** Per-run execution context: collector, budgets, virtual I/O.  The
    representation is {!Rt.ctx}, so an evaluator outside this library
    (the test suite's tree-walking reference) can run inside
    {!run_traced}. *)

val create_ctx :
  ?config:config ->
  ?argv:string list ->
  ?stdin_line:string ->
  ?virtual_files:(string * string) list ->
  ?deadline_ns:int64 ->
  Trace.collector ->
  ctx
(** [deadline_ns] is an absolute CLOCK_MONOTONIC instant (the clock of
    {!Telemetry.now_ns}); it is probed every 256 steps, so overshoot is
    bounded by the cost of 256 interpreter steps. *)

type outcome =
  | Finished of Value.t
  | Errored of string * string  (** exception kind, message *)
  | Hit_limit of string
      (** step budget or call depth exhausted — the per-run {e work}
          bound of the paper's sandbox *)
  | Deadline_exceeded of string
      (** past its wall-clock deadline — the per-request {e time}
          bound; distinct from {!Hit_limit} so serving can degrade
          rather than misreport a slow run as a spin loop *)

val builtin_names : string list
(** Names resolvable as builtin free functions at runtime.  Exposed so
    static analysis (lib/staticcheck) checks against the same table the
    interpreter dispatches on. *)

val known_exception_kinds : string list
(** Exception-kind names resolvable as raisable values / except filters. *)

type run_result = {
  outcome : outcome;
  trace : Trace.t;
  steps_used : int;
  printed : string list;  (** captured print() output *)
}

val exec_program : ctx -> Value.scope -> Ast.program -> unit
(** Execute a whole parsed file's statements into the scope. *)

val load_module :
  ?config:config -> Ast.program list -> Value.scope * (string * string) list
(** Execute all top-level statements of the files, untraced, collecting
    definitions into a fresh scope.  Per-file errors are tolerated and
    reported; already-executed definitions remain usable. *)

val run_traced :
  ?config:config ->
  ?record_assigns:bool ->
  ?argv:string list ->
  ?stdin_line:string ->
  ?virtual_files:(string * string) list ->
  ?deadline_ns:int64 ->
  (ctx -> Value.t) ->
  run_result
(** Run a thunk under full tracing and sandbox limits.  An expired
    [deadline_ns] yields a [Deadline_exceeded] outcome (a deadline
    already past on entry refuses to start the run at all).  Fault
    injection ({!Faults.active}) may delay the run or kill it with an
    ["FaultInjected"] error outcome. *)

val call_callable : ctx -> Value.t -> Value.t list -> Value.t
(** Call a function, bound method or class value. *)

val call_method : ctx -> Value.t -> string -> Value.t list -> Ast.pos -> Value.t
(** Call a method on any value (string/list/dict methods included). *)
