(** The repository model of the simulated open-source ecosystem. *)

type file = { path : string; source : string }

type t = {
  repo_name : string;  (** "owner/project" *)
  description : string;
  readme : string;
  stars : int;
  files : file list;
  truth : (string * string list) list;
      (** function name → benchmark type ids it intends to process;
          this is the ground truth behind the human intention score
          I(F) of Section 8.1 and is never visible to the pipeline *)
}

val make :
  ?readme:string ->
  ?stars:int ->
  ?truth:(string * string list) list ->
  string ->
  string ->
  file list ->
  t

val intends : t -> func_name:string -> type_id:string -> bool
(** I(F): does the named function intend to process the type? *)

val parse_all : t -> (Minilang.Ast.program list, string) result

(** {1 Repository identity}

    Every per-repository cache (the parse cache, the analyzer's memos,
    the driver's loaded scopes) keys a repository by its name and the
    physical identity of its [files] list, so two repositories built
    apart under one name never share an entry. *)

module Tbl : sig
  type repo := t

  type ('k, 'v) t
  (** A table from (repository, ['k]) to ['v]; one entry per name and
      key, which a repository built anew under that name replaces.
      Not synchronized. *)

  val create : int -> ('k, 'v) t
  val find_opt : ('k, 'v) t -> repo -> 'k -> 'v option
  val replace : ('k, 'v) t -> repo -> 'k -> 'v -> unit
end

type ('k, 'v) memo
(** A {!Tbl} behind a mutex, shared by the tracing domains. *)

val memo : unit -> ('k, 'v) memo

val memoized : ('k, 'v) memo -> t -> 'k -> (unit -> 'v) -> 'v
(** The entry for (repository, key), computed on a miss outside the
    lock; when two domains compute one entry, the first insert wins. *)

val parse_each : t -> Minilang.Ast.program list * (string * int * string) list
(** Cached per-file parse: the programs that parse, plus a
    [(path, line, message)] record for each file that does not.  The
    analyzer and driver use this to keep working candidates from
    repositories with one broken file. *)

val programs : t -> Minilang.Ast.program list option
(** Cached parse of all files; [None] when any file fails to parse
    (the paper keeps only repositories that compile). *)
