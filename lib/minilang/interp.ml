(** MiniScript execution: the public API over the bytecode VM.

    Programs run on the bytecode VM: {!Compile} lowers the AST and {!Vm}
    executes it.  This module adds what every run needs around it —
    module loading, sandbox limits, deadlines, fault injection, trace
    collection and telemetry.

    Every condition evaluation (if/elif/while/ternary) emits a
    {!Trace.Branch} event, every [return] emits a {!Trace.Return} event
    with the abstracted value, and — when transformation harvesting is
    enabled — every assignment emits a {!Trace.Assign} event.  This
    mirrors the paper's byte-code instrumentation (Appendix D.2), which
    dumps the stack top before every jump and return instruction together
    with its file/line identifier.

    Sandboxing: a step budget and a call-depth cap bound every execution,
    replacing the paper's 30-second per-function watchdog and OS-level
    sandbox (Appendix D.3).  Exceeding a limit raises {!Sandbox_limit},
    which is deliberately not catchable by MiniScript [try/except].
    Shared runtime primitives (operators, builtins, methods, tick
    accounting) live in {!Rt}.  The test suite keeps a tree-walking
    evaluator as the executable reference the VM must match. *)

open Value

(* Public names re-exported from the shared runtime so existing callers
   (driver, ranking, serving, tests) keep compiling unchanged. *)
exception Sandbox_limit = Rt.Sandbox_limit
exception Cancelled = Rt.Cancelled

type config = Rt.config = {
  max_steps : int;
  max_call_depth : int;
}

let default_config = Rt.default_config

type ctx = Rt.ctx

let create_ctx = Rt.create_ctx
let known_exception_kinds = Rt.known_exception_kinds
let builtin_names = Rt.builtin_names

open Rt

type outcome =
  | Finished of Value.t
  | Errored of string * string  (** exception kind, message *)
  | Hit_limit of string
  | Deadline_exceeded of string

type run_result = {
  outcome : outcome;
  trace : Trace.t;
  steps_used : int;
  printed : string list;
}

(* Per-execution telemetry (no-ops until Telemetry.enable): updated once
   per run_traced, never inside the evaluation loop. *)
let m_runs = Telemetry.counter "interp.runs"
let m_steps = Telemetry.counter "interp.steps"
let m_branch_events = Telemetry.counter "interp.branch_events"
let m_return_events = Telemetry.counter "interp.return_events"
let m_fuel_exhausted = Telemetry.counter "interp.fuel_exhausted"
let m_limit_hits = Telemetry.counter "interp.limit_hits"
let m_errored = Telemetry.counter "interp.errored_runs"
let m_deadline_hits = Telemetry.counter "interp.deadline_hits"
let h_steps = Telemetry.histogram "interp.steps_per_run"

(** Execute a whole parsed file into [scope].  Used both to load
    definitions and to run script-level snippets. *)
let exec_program = Vm.exec_program

(** Load a module: execute all top-level statements with the given
    budget, collecting definitions into a fresh scope.  Top-level
    script code that fails does not prevent the definitions already
    executed from being used (mirroring how the paper loads whatever
    compiles). *)
let load_module ?(config = default_config) (programs : Ast.program list) :
    scope * (string * string) list =
  let scope = scope_create () in
  let errors = ref [] in
  List.iter
    (fun p ->
      let collector = Trace.create_collector () in
      let ctx = create_ctx ~config collector in
      try exec_program ctx scope p with
      | Runtime_error (kind, msg) ->
        errors := (p.Ast.prog_file, kind ^ ": " ^ msg) :: !errors
      | Sandbox_limit msg -> errors := (p.Ast.prog_file, "sandbox: " ^ msg) :: !errors
      | Return_signal _ -> errors := (p.Ast.prog_file, "return outside function") :: !errors
      | Break_signal | Continue_signal ->
        errors := (p.Ast.prog_file, "break/continue outside loop") :: !errors)
    programs;
  (scope, List.rev !errors)

(** Run a zero-argument thunk under full tracing and sandbox limits. *)
let run_traced ?(config = default_config) ?(record_assigns = false)
    ?(argv = []) ?(stdin_line = "") ?(virtual_files = []) ?deadline_ns
    (f : ctx -> Value.t) : run_result =
  let collector = Trace.create_collector ~record_assigns () in
  let ctx =
    create_ctx ~config ~argv ~stdin_line ~virtual_files ?deadline_ns collector
  in
  Faults.delay_run ();
  let expired_on_entry =
    match deadline_ns with
    | Some d -> Telemetry.now_ns () >= d
    | None -> false
  in
  let outcome =
    if Faults.should_kill () then begin
      Trace.emit collector (Trace.Exception "FaultInjected");
      Errored ("FaultInjected", "interpreter run killed by fault injection")
    end
    else if expired_on_entry then
      (* The request's budget was consumed before this run started (a
         stalled predecessor, an injected delay): refuse to start. *)
      Deadline_exceeded deadline_message
    else
      try Finished (f ctx)
      with
      | Runtime_error (kind, msg) ->
        Trace.emit collector (Trace.Exception kind);
        Errored (kind, msg)
      | Sandbox_limit msg -> Hit_limit msg
      | Cancelled msg -> Deadline_exceeded msg
      | Return_signal _ -> Errored ("SyntaxError", "return outside function")
      | Break_signal | Continue_signal ->
        Errored ("SyntaxError", "break outside loop")
      | Stack_overflow -> Hit_limit "native stack overflow"
  in
  if Telemetry.enabled () then begin
    Telemetry.incr m_runs;
    Telemetry.incr ~by:ctx.steps m_steps;
    Telemetry.incr ~by:collector.Trace.n_branches m_branch_events;
    Telemetry.incr ~by:collector.Trace.n_returns m_return_events;
    Telemetry.observe h_steps (float_of_int ctx.steps);
    (match outcome with
     | Hit_limit msg ->
       Telemetry.incr m_limit_hits;
       if msg = "step budget exhausted" then Telemetry.incr m_fuel_exhausted
     | Deadline_exceeded _ ->
       Telemetry.incr m_deadline_hits;
       Telemetry.Flight.record ~kind:"deadline"
         ~value:(float_of_int ctx.steps) "interp.run"
     | Errored _ -> Telemetry.incr m_errored
     | Finished _ -> ())
  end;
  Rt.retire_ctx ctx;
  {
    outcome;
    trace = Trace.finish collector;
    steps_used = ctx.steps;
    printed = List.rev ctx.printed;
  }

(** Call a callable value with the given MiniScript arguments. *)
let call_callable = Vm.call_callable

let call_method = Vm.call_method
