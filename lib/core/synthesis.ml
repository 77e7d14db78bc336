(** Synthesizing the boolean validation function from a selected DNF
    (Section 5.3, Algorithm 3, Appendix G).

    The concise DNF is first extended to DNF-E by replacing each literal
    with the conjunction of its whole identical-coverage group — this
    restricts future inputs to take exactly the same sub-path rather
    than merely hitting one literal on it.  Validation of a new string
    [s] then runs the function, featurizes the trace T(s), and accepts
    iff ∧T(s) → DNF-E. *)

type t = {
  candidate : Repolib.Candidate.t;
  dnf : Dnf.result;
  explanation : string;  (** the concise DNF shown to users *)
}

let make candidate (dnf : Dnf.result) : t =
  { candidate; dnf; explanation = Dnf.to_string dnf }

(** The synthesized [bool F'(s)] of Algorithm 3. *)
let validate (t : t) (input : string) : bool =
  let result = Repolib.Driver.run_safe t.candidate input in
  let trace = Feature.featurize result.Minilang.Interp.trace in
  Dnf.satisfies t.dnf.Dnf.expanded trace

type verdict =
  | Valid
  | Invalid
  | Deadline

(** Deadline-aware validation for the serving path.  A run cut by its
    wall-clock deadline produced only a {e partial} trace; featurizing
    it and testing DNF-E would manufacture a verdict from evidence the
    function never finished producing, so the cut is surfaced as its
    own [Deadline] verdict and the caller decides how to degrade.
    With no [deadline_ns] this is exactly {!validate}. *)
let validate_v ?deadline_ns (t : t) (input : string) : verdict =
  let result = Repolib.Driver.run_safe ?deadline_ns t.candidate input in
  match result.Minilang.Interp.outcome with
  | Minilang.Interp.Deadline_exceeded _ ->
    Telemetry.Flight.record ~kind:"deadline" "synthesis.validate_v";
    Deadline
  | _ ->
    let trace = Feature.featurize result.Minilang.Interp.trace in
    if Dnf.satisfies t.dnf.Dnf.expanded trace then Valid else Invalid

(** Validate against the concise (un-extended) DNF — used by the
    ablation bench to quantify what DNF-E buys. *)
let validate_concise (t : t) (input : string) : bool =
  let result = Repolib.Driver.run_safe t.candidate input in
  let trace = Feature.featurize result.Minilang.Interp.trace in
  Dnf.satisfies t.dnf.Dnf.clauses trace

(** The single source of the Section 9.1 column-detection threshold:
    a column is of the type when more than this fraction of its values
    pass.  [Tablecorpus.Detect.detection_threshold] re-exports it and
    [Tablecorpus.Detect.column_verdict] is the one place it is applied. *)
let default_detection_threshold = 0.8
