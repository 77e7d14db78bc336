(** Persistent model artifacts: the compile half of the compile/serve
    split (DESIGN.md §9).

    An artifact is a self-contained, versioned serialization of one
    synthesized validator [F'(s)] (Section 5.3, Algorithm 3): the
    candidate's MiniScript sources and invocation plan, the interpreter
    sandbox config, the concise DNF and DNF-E with their
    identical-coverage groups, and provenance (query, seed, pipeline
    config, mutation strategy, train-set coverage stats).  Loading an
    artifact rebuilds a {!Autotype_core.Synthesis.t} whose verdicts are
    byte-identical to the in-memory synthesizer — no code search, no
    candidate analysis, no negative generation.

    {2 On-disk format}

    A header line followed by a single JSON payload line:

    {v
    AUTOTYPE-MODEL v<version> md5=<32 hex digits>
    {"provenance":{...},"candidate":{...},"driver":{...},"dnf":{...}}
    v}

    The checksum is MD5 over the exact payload bytes; any truncation or
    bit-flip is rejected at load time before the payload is interpreted.
    Versioning is strict: a loader only accepts its own
    {!format_version} (see DESIGN.md §9 for the compatibility policy). *)

val format_version : int
val magic : string  (** ["AUTOTYPE-MODEL"] *)

val extension : string
(** [".model"] — the registry scans for this suffix. *)

type provenance = {
  query : string;  (** search keyword the model was compiled from *)
  type_id : string option;  (** benchmark type id, when compiled from one *)
  seed : int;  (** pipeline seed (negative generation) *)
  pipeline : Autotype_core.Pipeline.config;
  strategy : Autotype_core.Negative.strategy option;
      (** mutation level that produced the training negatives *)
  candidates_tried : int;
  repos_searched : int;
}

type t = {
  provenance : provenance;
  candidate : Repolib.Candidate.t;
      (** carries a slimmed repository: sources needed for execution,
          with ground-truth annotations stripped *)
  driver : Minilang.Interp.config;  (** sandbox limits used when serving *)
  dnf : Autotype_core.Dnf.result;
      (** concise DNF, DNF-E and train-set coverage stats *)
  summary : Absint.Domain.compiled option;
      (** interpreter-free fast path (format v2, DESIGN.md §13): a
          verdict tree proven by the abstract interpreter to reproduce
          [Synthesis.validate] exactly.  [None] whenever the candidate
          lacks a proven (pure, terminating, summarizable) analysis —
          serving then uses the interpreter for every value. *)
}

(** {1 Compile: exporting} *)

val of_synthesis :
  provenance:provenance -> Autotype_core.Synthesis.t -> t

val of_compiled : Autotype_core.Pipeline.compiled -> t option
(** Artifact of the top-ranked validator of a {!Pipeline.compile} run;
    [None] when the pipeline synthesized nothing. *)

val with_type_id : string -> t -> t

(** {1 Serve: importing} *)

val to_synthesis : t -> Autotype_core.Synthesis.t
(** Rebuild the live validator.  Semantics-preserving: for every input,
    [Synthesis.validate (to_synthesis (load (save t)))] equals
    [Synthesis.validate] of the original. *)

val key : t -> string
(** Registry key: the type id when present, otherwise a slug of the
    query. *)

(** {1 Persistence} *)

type load_error =
  | File_error of string  (** missing or unreadable file *)
  | Not_a_model of string  (** magic line absent or mangled *)
  | Version_unsupported of { found : int; supported : int }
  | Checksum_mismatch of { expected : string; actual : string }
      (** truncated or corrupted payload *)
  | Malformed of string
      (** checksum passed but the payload is not a well-formed artifact
          (writer bug), or an embedded source (named with its line) or
          a compiled tree's regex does not parse *)

val load_error_to_string : load_error -> string
(** One-line diagnosis; always names the artifact format version
    involved so version skew is visible in CLI errors. *)

val encode : t -> string
(** The full file contents (header + payload + newline). *)

val decode : string -> (t, load_error) result
(** Also parses every embedded source, through {!Repolib.Repo.parse_each}
    whose cache serving then reuses, and prepares the compiled tree if
    there is one: a model that decodes cannot fail on every value for a
    reason visible at load. *)

val save : t -> string -> (unit, string) result
(** Write atomically (temp file + rename); records a [model.save]
    telemetry span with payload size. *)

val load : string -> (t, load_error) result
(** Read and verify; records a [model.load] span. *)
