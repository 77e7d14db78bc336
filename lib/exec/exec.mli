(** Parallel execution engine: a fixed-size pool of OCaml 5 domains with
    a deterministic [parallel_map].

    The pool exists for the pipeline's dominant cost — tracing every
    candidate function against every example — which is embarrassingly
    parallel: candidates share no mutable state (each run loads a fresh
    module scope).  Pure stdlib ([Domain]/[Mutex]/[Condition]/[Atomic]),
    no external dependencies.

    Determinism: [parallel_map] writes each result into a slot indexed
    by the element's input position, so the output list is byte-for-byte
    identical to [List.map] regardless of the number of domains or how
    the scheduler interleaves them.  The pipeline relies on this to make
    [--jobs N] output indistinguishable from sequential runs. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] capped to \[1, 8\].  The cap
    keeps oversubscription bounded on large machines; candidate tracing
    saturates well before 8 domains on the simulated corpus. *)

(** Absolute wall-clock deadlines on the monotonic clock
    ({!Telemetry.now_ns}), shared by the interpreter's per-run bound and
    the serving path's per-batch bound so nested scopes compare the same
    time base. *)
module Deadline : sig
  type t

  val after_ms : float -> t
  (** The instant [ms] milliseconds from now (clamped to now for
      negative input). *)

  val to_ns : t -> int64
  (** The absolute monotonic-ns instant, for handing to
      [?deadline_ns] parameters down the stack. *)

  val now_ns : unit -> int64

  val expired : t -> bool

  val min_opt : t option -> t option -> t option
  (** Effective deadline of a nested scope: whichever cuts first
      ([None] = unbounded on that side). *)
end

module Pool : sig
  type t
  (** A fixed set of worker domains and a task queue.  A pool with
      [jobs = 1] spawns no domains at all: every map runs inline on the
      caller, making it a zero-overhead sequential fallback. *)

  val create : jobs:int -> t
  (** Spawn [jobs - 1] worker domains ([jobs] is clamped to at least 1);
      the caller participates in every map as the remaining worker. *)

  val jobs : t -> int

  val parallel_map : t -> ('a -> 'b) -> 'a list -> 'b list
  (** Order-preserving map over the pool.  Elements are handed out one
      at a time from an atomic cursor (dynamic load balancing); results
      land in input order.

      If [f] raises on one or more elements, the exception of the
      {e lowest-index} failing element is re-raised with its backtrace —
      matching which exception a sequential [List.map] would have
      surfaced — after all in-flight work has drained, leaving the pool
      reusable.  Not re-entrant: [f] must not itself call
      [parallel_map] on the same pool. *)

  val shutdown : t -> unit
  (** Stop and join all worker domains.  Idempotent. *)

  val with_pool : jobs:int -> (t -> 'a) -> 'a
  (** [create], run, then [shutdown] (also on exception). *)
end

val map : ?pool:Pool.t -> ('a -> 'b) -> 'a list -> 'b list
(** [List.map] when [pool] is [None], [Pool.parallel_map] otherwise.
    The convenience form call-sites use to stay pool-agnostic. *)
