(** Column-type detection over the web-table corpus (Section 9): the
    synthesized-function method (DNF-S), the header-keyword baseline
    (KW) and the inferred-regex baseline (REGEX). *)

type method_ = DNF_S | KW | REGEX

val method_to_string : method_ -> string
val all_methods : method_ list

val header_keywords : (string * string list) list
(** Per-type header keywords for the KW baseline. *)

val detection_threshold : float
(** A column is detected when more than this fraction of values pass
    (0.8, per Section 9.1).  Equal by construction to
    {!Autotype_core.Synthesis.default_detection_threshold} — the value
    is defined once, in the synthesis layer, and applied only by
    {!column_verdict}. *)

type detector = {
  type_id : string;
  accepts : string -> bool;
  usable : bool;  (** REGEX inference can fail on heterogeneous input *)
}

(** {1 The serve route}

    Every validate and detect — the daemon, the CLI, the benches —
    answers through {!serve}, and every column decision through
    {!column_verdict} (DESIGN.md §10).  Wall-clock budgets are optional:
    a per-value budget bounds any single VM run, a batch deadline
    bounds the whole request.  A verdict never depends on whether a
    budget was sent, only on whether one ran out. *)

type budgets = {
  value_budget_ms : float option;  (** per-value wall-clock budget *)
  batch_deadline : Exec.Deadline.t option;  (** whole-request bound *)
}

val no_budgets : budgets

val budgets :
  ?value_budget_ms:float -> ?deadline_ms:float -> unit -> budgets
(** Convenience constructor: [deadline_ms] is measured from now. *)

(** What {!serve} answers from. *)
type model =
  | Loaded of Model.Registry.entry
      (** a compiled artifact: its prepared tree first, when it has one *)
  | Synthesized of Autotype_core.Synthesis.t
      (** a freshly synthesized validator: no tree, always the VM *)

type value_verdict =
  | V_valid
  | V_invalid
  | V_deadline  (** cut by its own wall-clock budget; no claim made *)
  | V_skipped  (** the batch deadline had already passed; never ran *)

val value_verdict_to_string : value_verdict -> string
(** The CLI's verdict words: "VALID", "invalid", "DEADLINE", "SKIPPED"
    — also the wire-protocol encoding, so daemon responses are
    byte-comparable with one-shot CLI output. *)

val fastpath_max_len : int
(** Longest value answered from a compiled tree (4096); longer values
    take the VM route ([serve.fastpath_fallbacks], plus a
    [fastpath_fallback] flight event). *)

val serve : ?budgets:budgets -> model -> string list -> value_verdict list
(** One verdict per value, in order.  A value is answered from the
    model's compiled tree when there is one and the value fits
    {!fastpath_max_len} ([serve.fastpath_hits]), under any budget: the
    tree has no loops, so its cost is bounded by the value's length.
    Otherwise the VM runs it under the tighter of the value budget and
    the batch deadline; a run cut short reports [V_deadline]
    ([serve.deadline_hits]).  Once the batch deadline has passed, the
    rest of the batch reports [V_skipped] without running, counted once
    per cut batch ([serve.degraded]) with one [degraded] flight event
    and a flight dump.  Every call is one observation of
    [serve.column_latency_ms], whose count is the number of served
    columns; a call opens no span. *)

type column_verdict =
  | Column_match of float  (** fraction accepted, above the threshold *)
  | Column_no_match of float
  | Column_degraded of { seen : int; accepted : int; total : int }
      (** the batch deadline passed mid-column: no type claim is made,
          the partial tally is reported, the batch continues *)

val column_verdict : value_verdict list -> column_verdict
(** The Section 9.1 column rule over one column's verdicts: degraded
    when any value was skipped, otherwise a match when more than
    {!detection_threshold} of all values (empties included) are
    [V_valid].  Counts [detect.columns_scanned] per column and
    [detect.columns_detected] per match. *)

val serve_column :
  ?budgets:budgets -> Autotype_core.Synthesis.t -> string list ->
  column_verdict
(** [column_verdict (serve ?budgets (Synthesized syn) values)]. *)

val serve_detector : Model.Registry.entry -> detector
(** Detector around a registry-served model (the warm path): each value
    goes through the serve route, unbudgeted — compiled tree first,
    then the VM. *)

val synthesize :
  ?seed:int -> ?pool:Exec.Pool.t -> Semtypes.Registry.t ->
  Autotype_core.Synthesis.t option
(** Run the full pipeline for a type from 20 seeded positives (default
    seed 11) and return its top-1 validator — the live detector of the
    DNF-S method and of [autotype detect] without [--models]. *)

val dnf_detector : ?seed:int -> Semtypes.Registry.t -> detector
(** The DNF-S detector for a type: {!synthesize}'s top-1 function,
    wrapped; unusable when nothing was synthesized. *)

val regex_detector : ?seed:int -> Semtypes.Registry.t -> detector
(** Potter's-Wheel inference from the same positive examples. *)

val header_matches : string -> string option -> bool

val detect_with_values :
  detector -> Webtables.column list -> Webtables.column list

val detect_with_headers :
  string -> Webtables.column list -> Webtables.column list

val score :
  string ->
  detected:Webtables.column list ->
  columns:Webtables.column list ->
  Eval.Metrics.prf

type per_type_result = {
  type_id : string;
  method_ : method_;
  detected : int;
  true_positives : int;
  precision : float;
  relative_recall : float;  (** vs. the union of all methods' correct finds *)
  f1 : float;
}

val run : ?seed:int -> Webtables.column list -> per_type_result list
(** All three methods on all 20 popular types (Figure 11 / Table 2). *)
