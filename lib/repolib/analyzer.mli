(** Static analysis of repositories (Section 4.2): walk every parsed
    file and enumerate the functions invocable with one input string
    under the supported invocation plans, including class-based
    variants, implicit-input functions (argv / stdin / file),
    script-level snippets with hard-coded constants, whole-file scripts
    reading argv or stdin, and multi-parameter functions fed by
    splitting.

    Also the bridge to {!Staticcheck}: per-candidate pre-trace
    verdicts (input-flow rankability + step-budget hints) and per-repo
    lint diagnostics, both memoized. *)

val candidates_of_repo : Repo.t -> Candidate.t list
(** Candidates from every file that parses.  Files that fail to parse
    are skipped (counted in the [analyzer.files_skipped] telemetry
    counter); a repository where no file parses yields []. *)

type verdict = {
  rankable : bool;
      (** [false] = the input provably cannot reach any branch
          condition, return value, or raise under this invocation
          plan, so the candidate's trace is input-independent and it
          can never produce a discriminating pattern.  Over-approximate
          (sound): [true] whenever the analysis is unsure. *)
  budget_hint : int option;
      (** a reduced interpreter [max_steps] for candidates whose entry
          function provably spins in a constant-condition loop *)
}

val verdict : Candidate.t -> verdict
(** Static pre-trace verdict for one candidate.  Taint analyses are
    memoized per (repository, input channel); verdicts per candidate.
    Thread-safe. *)

val absint_facts : Candidate.t -> Absint.Domain.facts
(** Abstract-interpretation facts (purity, step bound, symbolic
    summary) for a candidate's entry function.  Computed only for the
    [Direct] invocation plan and only when the function name is bound
    exactly once across the repository (so the analyzed AST is
    provably the function the driver invokes); everything else gets
    {!Absint.Domain.unknown_facts}.  Memoized; thread-safe. *)

type clone = {
  class_key : string;
      (** equal keys mean equal runs: same trace and step count on every
          input, up to the file names of the trace sites *)
  files : string list;
      (** the files of the candidate's closure, by closure position:
          two members of one class rename sites into each other's
          through the files at equal positions *)
}

val clone : Candidate.t -> clone
(** The candidate's clone class (DESIGN.md §7).  The key covers the
    entry function and its transitive module-level callees and
    constants, with def names erased and files replaced by their
    closure positions; how every free name resolves (builtin, function
    bound once, literal bound once); the invocation plan with names
    erased; and how the closure's file names sort against each other
    and against ["<output>"].  Anything the key cannot resolve —
    class and script plans, [global], a name bound twice, load-time
    code before a binding — is a class of its own, keyed by
    {!Candidate.key} with no files.  The interpreter config is not part
    of the key: callers add it.  Memoized; thread-safe. *)

val repo_diagnostics : Repo.t -> Staticcheck.Diag.t list
(** All lint diagnostics for a repository: E100 parse errors for
    files that fail to parse plus the five {!Staticcheck} passes over
    the files that do, in stable (file, line, code) order.  Memoized;
    thread-safe. *)
