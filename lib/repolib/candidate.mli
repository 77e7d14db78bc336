(** Candidate functions and their single-input invocation plans
    (Section 4.2 and Appendix D.1 of the paper). *)

type invocation =
  | Direct  (** [F(s)] — variant 1 *)
  | Class_then_method of string * string
      (** [a = C(); a.m(s)] — variant 2 *)
  | Ctor_then_method of string * string
      (** [a = C(s); a.m()] — variant 3 *)
  | Via_argv of string  (** [F()] reading sys.argv — variant 4 *)
  | Via_stdin of string  (** [F()] reading input() — variant 5 *)
  | Via_file of string  (** [F('f.txt')], file holds the input — variant 6 *)
  | Script_var of string * string
      (** run whole file, overriding a hard-coded constant (Listing 3) *)
  | Script_argv of string  (** run whole file with sys.argv fed *)
  | Script_stdin of string  (** run whole file with input() fed *)
  | Split_call of string * char * int
      (** [F(p1, …, pk)] after splitting the input on a delimiter *)

type t = {
  repo : Repo.t;
  file : string;
  func_name : string;
  invocation : invocation;
  doc_text : string;  (** identifier text used by the KW baseline *)
}

val invocation_to_string : invocation -> string

val describe : t -> string
(** e.g. ["mpaz/cardcheck :: is_valid_card [F(s)]"]. *)

val id : t -> string
(** Stable identifier for deduplication and pooling.  One function
    invoked through two plans shares its id. *)

val key : t -> string
(** {!id} plus the invocation plan: distinct for distinct candidates of
    one repository snapshot, so it keys every per-candidate memo. *)
