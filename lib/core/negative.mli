(** Automatic negative-example generation (Section 6 of the paper):
    inferred alphabets (Definition 5) and the strict mutation hierarchy
    S1 ⊆ S2 ⊆ S3 (Proposition 1). *)

type strategy =
  | S1  (** mutate-preserve-structure: non-punctuation, in-alphabet *)
  | S2  (** mutate-preserve-alphabet: any character, in-alphabet *)
  | S3  (** mutate-random: any character, full alphabet *)

val strategy_to_string : strategy -> string

val is_punctuation : char -> bool

type alphabet = {
  full : char list;  (** Σ(P): every character appearing in P *)
  non_punct : char list;  (** in-alphabet non-punctuation characters *)
}

val infer_alphabet : string list -> alphabet

val sigma_full : char list
(** The full printable alphabet used by S3. *)

val mutate : ?p:float -> Random.State.t -> alphabet -> strategy -> string -> string
(** Mutate one example; each eligible character is replaced with
    probability [p] (default 0.25).  At least one character changes. *)

val generate :
  ?per_positive:int -> ?p:float -> seed:int -> strategy -> string list ->
  string list
(** Generate-N-by-Mutation: [per_positive] (default 8) likely-negative
    mutants per positive example.  Deterministic in [seed]. *)

val random_strings : ?per_positive:int -> seed:int -> string list -> string list
(** The naive random-string baseline of Figure 10(c). *)
