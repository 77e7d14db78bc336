(** The model registry: the serve half of the compile/serve split
    (DESIGN.md §9).

    A registry is a directory of [.model] artifacts, and its keys
    (benchmark type ids, or query slugs) are their file names: the key
    [ipv4] is the file [ipv4.model], which must hold the model whose
    {!Artifact.key} is [ipv4].  Loaded models are kept in a bounded
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
          or a regex of it does not parse *)
}

val entry_of_artifact : Artifact.t -> entry
(** Make an artifact ready to serve: rebuild its validator and prepare
    its compiled tree.  {!find} builds its entries this way. *)

val default_capacity : int
(** LRU capacity (number of resident models) when not overridden. *)

val open_dir : ?capacity:int -> string -> (t, string) result
(** Open an existing registry directory.  Loads nothing: a bad artifact
    shows when {!find} loads it.  [Error] when the directory does not
    exist. *)

val create_dir : ?capacity:int -> string -> (t, string) result
(** Like {!open_dir} but creates the directory when missing. *)

val dir : t -> string

val keys : t -> string list
(** The names, sorted and without the suffix, of the directory's
    [*.model] files; a name that is empty or starts with a dot is not a
    key. *)

val path_of : t -> string -> string option
(** Path of the artifact under a key, when {!keys} lists it. *)

val save : t -> Artifact.t -> (string, string) result
(** Write the artifact as [<key>.model] under {!Artifact.key}; returns
    the file path.  Replaces any previous model under the same key and
    drops the stale cache entry.  [Error] when the key cannot name a
    file of the directory. *)

val find : t -> string -> (entry, Artifact.load_error) result
(** Serve a model by key: LRU hit, or load-and-verify from disk (miss).
    A miss opens a file only for a key that {!keys} lists: any other
    key, such as [""], [".hidden"] or ["../elsewhere/ipv4"], is
    [Error (File_error _)] naming the available keys.  A file whose
    artifact has another key is [Error (Malformed _)].

    Transient load failures (unreadable file, checksum mismatch — both
    can be a torn read racing a writer) are retried up to 2 times with
    1ms/5ms backoff before the error is returned; structural failures
    (version, framing, malformed payload) are not retried.  Counters:
    [retry.attempts], [retry.recovered], [retry.gave_up]. *)

val cache_stats : t -> int * int
(** (hits, misses) since the registry was opened — mirrors the
    [serve.cache_*] counters but is per-registry and always on. *)
