(** The end-to-end AutoType pipeline (Figure 6): search → candidate
    analysis → negative generation with S1→S2→S3 escalation
    (Algorithm 2) → DNF ranking → synthesized validators. *)

type config = {
  k : int;  (** clause-length cap; paper uses 3 *)
  theta : float;  (** negative-coverage budget; paper uses 0.3 *)
  top_repos : int;  (** repositories fetched per engine; paper uses 40 *)
  neg_per_positive : int;
  mutation_p : float;
  found_fraction : float;
      (** minimum positive-coverage fraction for a function to count as
          "found" in Algorithm 2's non-empty test *)
  seed : int;
  staticcheck : bool;
      (** prune statically-unrankable candidates before tracing and
          apply static step-budget hints; on by default.  Sound: the
          ranked output is unchanged (DESIGN.md §8) *)
}

val default_config : config

type outcome = {
  query : string;
  positives : string list;
  strategy_used : Negative.strategy option;
  negatives : string list;
  ranked : Ranking.ranked list;  (** DNF-S order *)
  traceds : Ranking.traced list;
      (** raw traces against the final negative set, reusable by other
          ranking methods without re-execution *)
  candidates_tried : int;
  repos_searched : int;
}

val gather_candidates :
  index:Repolib.Search.index ->
  config:config ->
  query:string ->
  probe:string ->
  unit ->
  Repolib.Candidate.t list * int
(** Search + static analysis + executability probing.  Returns the
    candidate pool and the number of repositories searched. *)

val found_enough : config -> Dnf.result -> bool

val synthesize :
  ?config:config ->
  ?negatives_override:string list ->
  ?pool:Exec.Pool.t ->
  ?cache:Ranking.cache ->
  index:Repolib.Search.index ->
  query:string ->
  positives:string list ->
  unit ->
  outcome
(** Run the full pipeline.  [negatives_override] bypasses Algorithm 2
    (used by the Figure 10(c) ablations).

    [pool] traces candidates on the execution engine's domains, one
    task per clone class; the outcome is byte-identical to the
    sequential run because [Exec.Pool.parallel_map] preserves order,
    classes share no state, and the candidate order is restored.
    [cache] is the per-(clone class, input) trace memo threaded
    through the S1→S2→S3 attempts — positives are interpreted at most
    once per class per call; pass your own cache to share traces
    across calls with the same candidate pool. *)

type compiled = {
  c_outcome : outcome;
  c_config : config;  (** the configuration the outcome was produced under *)
}

val compile :
  ?config:config ->
  ?negatives_override:string list ->
  ?pool:Exec.Pool.t ->
  ?cache:Ranking.cache ->
  index:Repolib.Search.index ->
  query:string ->
  positives:string list ->
  unit ->
  compiled
(** Compile exit point of the compile/serve split: one [synthesize] run
    (under a [pipeline.compile] span) bundled with its configuration so
    a persistent model artifact (lib/model) can record full provenance.
    Serving a saved artifact replays none of the pipeline stages. *)

val best : outcome -> Synthesis.t option
(** The top-ranked synthesized validation function. *)
