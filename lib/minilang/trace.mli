(** Execution traces (Section 5.1 / Appendix D.2 of the paper).

    Each event carries a site — the (file, line) of the instruction —
    and a value pre-abstracted the way Section 5.2 featurizes it:
    booleans as true/false, numbers and collection lengths as
    zero/non-zero, composite objects as None/not-None. *)

type site = { s_file : string; s_line : int }

val site_of_pos : Ast.pos -> site
val site_to_string : site -> string

type ret_abstract =
  | Rbool of bool
  | Rzero  (** number or collection length equal to 0 *)
  | Rnonzero
  | Rnone  (** composite object that is None *)
  | Rnotnone
  | Rvoid  (** function fell off the end without a return value *)

val ret_abstract_to_string : ret_abstract -> string

val abstract_value : Value.t -> ret_abstract

type event =
  | Branch of site * bool
      (** an if/elif/while/ternary condition, taken or not *)
  | Return of site * ret_abstract
  | Exception of string  (** uncaught exception kind *)
  | Assign of site * string * string
      (** name and display value; only recorded when transformation
          harvesting is enabled (Section 7.1) *)

type t = event list
(** In execution order. *)

type collector = {
  mutable events : event list;  (** reversed *)
  mutable n_events : int;
  mutable n_branches : int;  (** all Branch emissions, even past the cap *)
  mutable n_returns : int;  (** all Return emissions, even past the cap *)
  max_events : int;
  record_assigns : bool;
}

val create_collector : ?max_events:int -> ?record_assigns:bool -> unit -> collector
val emit : collector -> event -> unit
val finish : collector -> t
