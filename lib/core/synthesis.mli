(** Synthesized boolean validation functions (Section 5.3, Algorithm 3):
    run the selected candidate on a new input, featurize its trace, and
    accept iff the trace satisfies the extended DNF-E. *)

type t = {
  candidate : Repolib.Candidate.t;
  dnf : Dnf.result;
  explanation : string;  (** the concise DNF shown to users *)
}

val make : Repolib.Candidate.t -> Dnf.result -> t

val validate : t -> string -> bool
(** The synthesized [bool F'(s)] — checks against DNF-E. *)

type verdict =
  | Valid
  | Invalid
  | Deadline
      (** the run was cut by its wall-clock budget: the trace is
          partial, so no accept/reject claim is made *)

val validate_v : ?deadline_ns:int64 -> t -> string -> verdict
(** Deadline-aware {!validate} for the serving path.  [deadline_ns] is
    an absolute monotonic instant ({!Exec.Deadline.to_ns} /
    {!Telemetry.now_ns} clock); without it the result is exactly
    [validate] lifted into [Valid]/[Invalid]. *)

val validate_concise : t -> string -> bool
(** Check against the un-extended concise DNF (ablation only). *)

val default_detection_threshold : float
(** The Section 9.1 column-detection threshold (0.8).  Single-sourced:
    [Tablecorpus.Detect.detection_threshold] re-exports it and
    [Tablecorpus.Detect.column_verdict] is the one place it is
    applied. *)
