(** String-method primitives shared between the interpreter (the
    bytecode VM, through {!Rt}) and the interpreter-free fast path
    ({!Absint} compiled summaries).  Single source of truth for
    MiniScript string semantics — the bench asserts byte-identical
    verdicts between the two routes. *)

val strip_chars : string -> string option -> left:bool -> right:bool -> string
(** [None] strips the four ASCII whitespace characters, like
    [str.strip()]. *)

val split_on_string : string -> string -> string list
(** [split_on_string sep s].
    @raise Invalid_argument on an empty separator — callers guard. *)

val split_whitespace : string -> string list

val find_substring : ?from:int -> string -> string -> int
(** [-1] when absent; an empty needle matches at [min from len]. *)

val replace_substring : string -> string -> string -> string
(** Empty needle is the identity (the interpreter never raises there). *)

val string_forall : (char -> bool) -> string -> bool
(** Python's truthiness-compatible forall: [false] on [""]. *)

val is_digit_char : char -> bool
val is_alpha_char : char -> bool
val is_alnum_char : char -> bool
val is_space_char : char -> bool
val starts_with : prefix:string -> string -> bool
val ends_with : suffix:string -> string -> bool
