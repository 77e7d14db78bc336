(** A small backtracking regular-expression engine.

    Supports literals, [.], escapes ([\d \D \w \W \s \S]), character
    classes with ranges and negation, grouping, alternation, the
    [* + ?] quantifiers, bounded repetition [{m}] [{m,n}] [{m,}] [{,n}],
    each greedy or lazy ([*?] [+?] [??] [{m,n}?]), and the [^ $]
    anchors.  As in CPython, a [{] that starts no repeat is a literal,
    a repeat of a repeat is an error ("multiple repeat"), and [$]
    matches at the end of the input or before a final newline.  One
    exception: CPython 3.11 reads [a*+] as a possessive repeat, this
    library as a repeat of [a*].  Backtracking is fuel-bounded, so pathological
    patterns terminate instead of hanging (a sandboxing requirement for
    mined code).

    Repetition follows CPython's rule: mandatory iterations always run,
    even when the body matches empty, and an optional iteration is never
    started at the position where the previous optional one started.  A
    greedy repeat tries the next iteration before what follows it, a
    lazy one what follows first.
    So [(a?){2}] matches [""] and [(|a)*] matches [""] at the start of
    ["a"].  A repeat count must be at most 4,294,967,294, CPython's
    limit. *)

type node =
  | Lit of char
  | Any  (** [.]: any character but ['\n'] *)
  | Class of (char * char) list * bool  (** ranges, negated? *)
  | Repeat of node * int * int option * bool
      (** [{m,n}]; [None] = unbounded; greedy?  [*] [+] [?] parse to
          [{0,}] [{1,}] [{0,1}] *)
  | Seq of node list
  | Alt of node list
  | Bol  (** [^] *)
  | Eol  (** [$]: the end of the input, or just before a final ['\n'] *)
(** The parsed pattern.  Groups leave no node. *)

type t
(** A compiled pattern. *)

exception Parse_error of string

val parse : string -> t
(** @raise Parse_error on malformed patterns, including a repeat count
    above 4,294,967,294. *)

val source : t -> string
(** The original pattern text. *)

val ast : t -> node
(** The parsed pattern, for reference matchers. *)

val default_fuel : int
(** Backtracking steps one match attempt may take by default. *)

val match_at : ?fuel:int -> t -> string -> int -> int option
(** [match_at re s i] matches starting exactly at offset [i]; returns
    the end offset of a match, or [None].  Exhausting [fuel] (default
    {!default_fuel}) counts as no match. *)

val match_prefix : t -> string -> int option
(** Python [re.match] semantics: anchored at offset 0, returns the end
    offset of the (greedy) match. *)

val full_match : ?fuel:int -> t -> string -> bool
(** Python [re.fullmatch] semantics: the whole string must match.
    Exhausting [fuel] (default {!default_fuel}) counts as no match. *)

val search : t -> string -> (int * int) option
(** Python [re.search] semantics: first offset pair [(start, stop)] at
    which the pattern matches. *)

val string_matches : string -> string -> bool
(** [string_matches pattern s] compiles and fully matches in one step. *)
