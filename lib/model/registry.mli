(** The model registry: the serve half of the compile/serve split
    (DESIGN.md §9).

    A registry is a directory of [.model] artifacts plus an
    [index.json] mapping registry keys (benchmark type ids, or query
    slugs) to file names.  Loaded models are kept in a bounded
    in-memory LRU shared across columns and guarded by a mutex, so the
    execution engine's domains ([--jobs N]) can serve from one registry
    concurrently; each artifact is read and verified at most once while
    it stays resident.

    Telemetry: [serve.cache_hits] / [serve.cache_misses] counters and
    the artifact layer's [model.load] / [model.save] spans. *)

type t

type entry = {
  synthesis : Autotype_core.Synthesis.t;  (** ready-to-serve validator *)
  artifact : Artifact.t;  (** provenance and coverage metadata *)
  tree : bool Absint.Domain.prepared_tree option;
      (** the artifact's compiled verdict tree with its regexes parsed,
          prepared once here; [None] when the artifact has no summary
          or a stored regex no longer parses *)
}

val entry_of_artifact : Artifact.t -> entry
(** Make an artifact ready to serve: rebuild its validator and prepare
    its compiled tree.  {!find} builds its entries this way. *)

val default_capacity : int
(** LRU capacity (number of resident models) when not overridden. *)

val open_dir : ?capacity:int -> string -> (t, string) result
(** Open an existing registry directory.  Reads [index.json] when
    present; otherwise falls back to scanning for [*.model] files (keys
    then come from each artifact's own metadata).  No artifact payloads
    are loaded eagerly in the indexed case.  [Error] when the directory
    does not exist. *)

val create_dir : ?capacity:int -> string -> (t, string) result
(** Like {!open_dir} but creates the directory (and a fresh index) when
    missing. *)

val dir : t -> string

val keys : t -> string list
(** Indexed keys, sorted. *)

val mem : t -> string -> bool

val path_of : t -> string -> string option
(** Absolute path of the artifact registered under a key. *)

val save : t -> Artifact.t -> (string, string) result
(** Write the artifact into the registry under {!Artifact.key} and
    update [index.json]; returns the file path.  Replaces any previous
    model under the same key and drops the stale cache entry. *)

val find : t -> string -> (entry, Artifact.load_error) result
(** Serve a model by key: LRU hit, or load-and-verify from disk (miss).
    [Error (File_error _)] when the key is not in the registry.

    Transient load failures (unreadable file, checksum mismatch — both
    can be a torn read racing a writer) are retried up to 2 times with
    1ms/5ms backoff before the error is returned; structural failures
    (version, framing, malformed payload) are not retried.  Counters:
    [retry.attempts], [retry.recovered], [retry.gave_up]. *)

val cache_stats : t -> int * int
(** (hits, misses) since the registry was opened — mirrors the
    [serve.cache_*] counters but is per-registry and always on. *)
