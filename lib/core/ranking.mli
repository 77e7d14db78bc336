(** Function ranking (Section 5.2) and the five compared methods of
    Section 8.1. *)

type method_ =
  | DNF_S  (** Best-k-Concise-DNF-Cover, the paper's approach *)
  | DNF_C  (** full-path DNF (Definition 3) *)
  | RET  (** black-box: output values only *)
  | KW  (** TF-IDF keyword match against function "documents" *)
  | LR  (** per-function logistic regression on the same features *)

val method_to_string : method_ -> string
val all_methods : method_ list

type traced = {
  candidate : Repolib.Candidate.t;
  pos_raw : Minilang.Trace.t list;
  neg_raw : Minilang.Trace.t list;
  steps : int;  (** interpreter steps across all runs (Figure 14) *)
  pruned : bool;
      (** negative tracing was skipped because every positive run
          errored (see [trace_candidate]'s [prune]); such a candidate is
          ranked with an empty DNF *)
  clone : Repolib.Analyzer.clone;
      (** the candidate's clone class ({!Repolib.Analyzer.clone}), its
          key extended by the interpreter config it was traced under *)
  examples : string list * string list;
      (** the positives and negatives it was traced on, as passed:
          [rank_one] shares a cover between two members of a class only
          when they were traced on physically the same lists *)
}

val run_examples :
  ?config:Minilang.Interp.config ->
  Repolib.Candidate.t -> string list -> Minilang.Trace.t list * int

val class_key : ?config:Minilang.Interp.config -> Repolib.Candidate.t -> string
(** The candidate's clone class under [config] (default
    {!Repolib.Driver.default_config}): the {!Repolib.Analyzer.clone} key
    plus the step budget and call-depth cap, so that runs under
    different budgets never share. *)

type cache
(** Memo of per-(clone class, input) traces.  The interpreter is
    deterministic, so a pair always yields the same trace and step
    count, and every member of a clone class yields the same trace as
    the class's representative (the first member traced) with its sites
    renamed into the member's files.  A cache threaded through repeated
    [trace_candidate] calls (e.g. across S1→S2→S3 strategy attempts)
    executes each (class, input) pair at most once.  Safe to share
    across the execution engine's domains as long as no two domains
    trace members of the {e same} class concurrently. *)

val cache_create : unit -> cache

val trace_candidate :
  ?config:Minilang.Interp.config ->
  ?cache:cache ->
  ?prune:bool ->
  Repolib.Candidate.t ->
  positives:string list ->
  negatives:string list ->
  traced
(** Execute the candidate on every example once; by far the dominant
    cost, so traces are shared across all ranking methods.  [cache]
    serves repeated (class, input) pairs — duplicate examples,
    re-attempts and clones of a traced candidate — from memory, renaming
    a clone's sites into its own files; the result is the one an
    uncached run gives.  [prune] (default false) skips negative
    tracing entirely when every positive run errored, marking the
    result [pruned] (counted by the [pipeline.candidates_pruned]
    counter). *)

val featurized :
  ?mode:Feature.mode ->
  traced ->
  Feature.Literal_set.t list * Feature.Literal_set.t list

type ranked = {
  traced : traced;
  dnf : Dnf.result;
  score : float;  (** method-specific; higher ranks first *)
}

val dnf_score : Dnf.result -> float
(** CovP primary, CovN as tie-breaker ("Ranking-by-DNF"). *)

val rank_one :
  ?k:int -> ?theta:float -> method_ -> query:string -> traced list ->
  ranked list
(** Rank all candidates under one method.  Exact score ties are broken
    by a deterministic hash of the candidate id, not input order.
    Members of one clone class traced on the same examples share one
    featurized cover per call (all methods but DNF-C), renamed into each
    member's files; the result is the one computing each cover gives. *)
