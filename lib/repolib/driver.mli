(** Execution driver: run a candidate on one input string under tracing
    and sandbox limits, with a freshly loaded module scope per run so
    state cannot leak between examples. *)

type outcome = Minilang.Interp.outcome =
  | Finished of Minilang.Value.t
  | Errored of string * string
  | Hit_limit of string
  | Deadline_exceeded of string

val default_config : Minilang.Interp.config

exception Infra_failure of string
(** The invocation machinery itself failed (callable not defined after
    module load), as opposed to the function failing on the input. *)

val run :
  ?config:Minilang.Interp.config ->
  ?record_assigns:bool ->
  ?deadline_ns:int64 ->
  Candidate.t ->
  string ->
  Minilang.Interp.run_result
(** [deadline_ns] is threaded into the traced interpreter run of every
    invocation variant; an expired deadline yields a
    [Deadline_exceeded] outcome (see {!Minilang.Interp.run_traced}).
    @raise Infra_failure when the candidate cannot be invoked at all. *)

val executable : Candidate.t -> probe:string -> bool
(** The paper's "compilable and executable" filter: try the candidate on
    one probe input; reject it if the invocation machinery fails. *)

val config_with_hint :
  Minilang.Interp.config -> int option -> Minilang.Interp.config
(** [config] with [max_steps] shrunk to a static step-budget hint.
    Hints are clamped to at least 1 step — a non-positive hint would
    otherwise produce a config that can never execute a step. *)

val config_for :
  ?config:Minilang.Interp.config ->
  ?input_len:int ->
  Candidate.t ->
  Minilang.Interp.config
(** [config] (default {!default_config}) with [max_steps] shrunk using
    every available static proof: the loop pass's spin hint and the
    abstract interpreter's step bound ({!Analyzer.absint_facts}; the
    [a·len + b] termination bound applies when [input_len] is given).
    When both hints exist the effective [max_steps] is their
    *minimum* — each is individually a sound requirement, so the min
    is too.  Sound either way: a proven-terminating run finishes under
    the bound, and a proven spin hits the limit with an unchanged
    traced event set. *)

val run_safe :
  ?config:Minilang.Interp.config ->
  ?record_assigns:bool ->
  ?deadline_ns:int64 ->
  Candidate.t ->
  string ->
  Minilang.Interp.run_result
(** Like {!run}, but {!Infra_failure} and any other exception the
    sandbox does not answer itself become an [InfraError] outcome,
    counted in [driver.infra_failures] with an [infra_failure] flight
    event. *)
