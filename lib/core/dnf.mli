(** Best-k-Concise-DNF-Cover (Definitions 2-4 and Algorithm 1 of the
    paper).

    Given featurized traces of positive and negative examples, finds a
    DNF over trace literals whose conjunctive clauses have at most [k]
    literals, covering as many positives as possible while covering at
    most a [theta] fraction of negatives.  The exact problem is NP-hard
    (Theorem 4), so a greedy cover is computed. *)

type clause = Feature.literal list
(** A conjunction of literals. *)

type result = {
  clauses : clause list;  (** the concise DNF, representatives only *)
  expanded : clause list;
      (** DNF-E (Appendix G): every representative replaced by the
          conjunction of its whole identical-coverage group *)
  cov_p : int;  (** positives covered *)
  cov_n : int;  (** negatives covered (≤ θ·n_neg) *)
  n_pos : int;
  n_neg : int;
}

val clause_to_string : clause -> string

val to_string : result -> string
(** Human-readable DNF, e.g. ["(b6 == True ∧ b16 == True) ∨ …"]. *)

type instance
(** Featurized traces of all examples for one candidate function. *)

val make_instance :
  positives:Feature.Literal_set.t list ->
  negatives:Feature.Literal_set.t list ->
  instance

val best_k_concise : ?k:int -> ?theta:float -> instance -> result
(** Greedy Best-k-Concise-DNF-Cover.  Defaults: [k = 3], [theta = 0.3]
    (the paper's settings). *)

val best_complete : ?theta:float -> instance -> result
(** The DNF-complete variant of Definition 3 (the DNF-C baseline):
    clauses are entire positive-trace signatures. *)

val satisfies : clause list -> Feature.Literal_set.t -> bool
(** [satisfies dnf trace] is [∧trace → dnf]: some clause is a subset of
    the trace. *)

val empty_result : n_pos:int -> n_neg:int -> result
