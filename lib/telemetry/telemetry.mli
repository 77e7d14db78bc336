(** Telemetry for the synthesis pipeline and serving layer: request
    trace contexts, nestable timed spans, counters, histograms with
    streaming quantile sketches, an always-on flight recorder, and
    JSONL/Prometheus export.

    Each event is recorded once.  Spans time the stages of a bounded
    run (synthesis, [model.load], [model.save]); histograms time
    requests; counters count; and the flight recorder holds only the
    events that code names where they happen (a deadline, a
    degradation, a retry, ...), never a copy of a counter.  So a
    long-running daemon with telemetry on keeps a bounded record: its
    span list grows only with registry misses.

    The metrics subsystem is a process-wide recorder that is {e
    disabled} by default: every instrumentation call ([with_span],
    [incr], [observe]) first checks a single boolean, so
    instrumented code pays effectively nothing until {!enable} is
    called.  The CLI turns it on for [--stats]/[--trace], the bench
    harness for its [pipeline] target, and tests enable it around
    individual assertions.  The {!Flight} recorder is independent of
    that flag: it is always on (a bounded ring of recent events).

    Timing uses the OS monotonic clock (CLOCK_MONOTONIC via bechamel's
    stubs), so span durations are immune to wall-clock adjustments.

    The recorder is a single global and is safe to probe from any
    domain: counters are atomics, histograms accumulate into per-domain
    shards merged at {!snapshot}, and spans nest along each domain's own
    dynamic call stack (finished spans are appended to one shared list).
    {!enable}, {!disable} and {!reset} may be called at any time, even
    with spans in flight on other domains: lifecycle operations
    atomically bump a generation counter, and observations started
    under an older generation are dropped rather than misattributed to
    the new run. *)

val now_ns : unit -> int64
(** Raw CLOCK_MONOTONIC reading in nanoseconds — the clock every span
    duration is measured on.  Exposed so deadline machinery (the
    interpreter's wall-clock budget, {!Exec.Deadline}) compares against
    the same time base the telemetry records. *)

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

val enabled : unit -> bool

val enable : unit -> unit
(** Turn telemetry on and start a fresh run: clears recorded spans and
    flight events and zeroes every registered metric. *)

val disable : unit -> unit
(** Turn telemetry off.  Recorded data is kept so it can still be
    snapshotted or exported after the measured region. *)

val reset : unit -> unit
(** Clear recorded spans and zero all metrics without changing the
    enabled flag.  Safe concurrently with in-flight observations: the
    generation counter is bumped atomically and stale-generation spans
    are dropped when they finish. *)

(* ------------------------------------------------------------------ *)
(* Trace contexts                                                      *)
(* ------------------------------------------------------------------ *)

module Context : sig
  (** A request-scoped identity carried in domain-local storage.  Every
      span, flight event and histogram exemplar recorded while a
      context is installed carries its trace id, so serving
      telemetry is attributable to the individual request that caused
      it.  Parallel regions capture the caller's context and reinstall
      it in worker domains ({!Exec.parallel_map}). *)

  type t = {
    trace_id : int64;  (** splitmix64-derived, never 0 for a real context *)
    request_id : int;
  }

  val root : ?request_id:int -> unit -> t
  (** Mint a fresh context with a new non-zero trace id.  [request_id]
      defaults to a process-wide sequence. *)

  val current : unit -> t option
  (** The context installed on the calling domain, if any. *)

  val trace_id : unit -> int64
  (** Trace id of the current context, or [0L] outside any context. *)

  val with_context : t -> (unit -> 'a) -> 'a
  (** Install a context for the dynamic extent of the thunk (saved and
      restored, exception-safe). *)

  val with_current : t option -> (unit -> 'a) -> 'a
  (** [with_current (Some ctx) f] is [with_context ctx f];
      [with_current None f] is [f ()].  The shape used to propagate a
      captured context into worker domains. *)

  val id_to_hex : int64 -> string
  (** 16-digit lowercase hex, e.g. ["00c3f2a9b1d40e77"]. *)

  val id_of_hex : string -> int64 option
  (** Strict inverse of {!id_to_hex}: exactly 16 hex digits, and never
      the all-zero id (which means "no context").  Used to adopt trace
      ids that arrive over the serving wire protocol. *)

  val trace_id_hex : t -> string
end

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

module Flight : sig
  (** A fixed-size, lock-striped ring buffer of recent structured
      events: span ends, deadline hits, column degradations, retry
      attempts, fault injections, model load failures, histogram
      exemplars.  Independent of the metrics [on]
      flag — always recording (bounded memory, ~zero cost).  Dumped as
      JSONL on demand or via {!trigger} when something goes wrong. *)

  type event = {
    f_ns : int64;  (** absolute monotonic time *)
    f_trace_id : int64;  (** 0 when recorded outside any context *)
    f_request_id : int;
    f_kind : string;  (** "span", "deadline", "degraded", "retry", … *)
    f_label : string;
    f_value : float;
  }

  val capacity : int
  (** Total ring capacity across stripes; older events are overwritten. *)

  val record : ?value:float -> kind:string -> string -> unit
  (** Record one event on the calling domain's stripe.  Picks up the
      current {!Context} automatically. *)

  val events : unit -> event list
  (** Current ring contents in time order. *)

  val overwritten : unit -> int
  (** Events lost to ring wrap-around since the last {!clear}. *)

  val clear : unit -> unit

  val event_to_json : event -> string
  (** One-line JSON object with sorted keys: kind, label, request_id,
      t_ms, trace_id (hex), value. *)

  val dump : string -> (int, string) result
  (** Write the ring contents as JSONL; returns the number of events
      written. *)

  val set_dump_path : string option -> unit
  (** Where {!trigger} dumps.  Defaults to [AUTOTYPE_FLIGHT_DUMP] from
      the environment; [None] makes triggers no-ops. *)

  val dump_path : unit -> string option

  val trigger : reason:string -> unit
  (** Record a ["dump"] event and dump the ring to the configured path
      (no-op when no path is configured; dump failures are reported on
      stderr, never raised). *)
end

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type attr_value =
  | S of string
  | I of int
  | F of float
  | B of bool

type attr = string * attr_value

type span = {
  sp_id : int;
  sp_parent : int option;  (** id of the enclosing span, if any *)
  sp_name : string;
  sp_trace_id : int64;  (** 0 when recorded outside any context *)
  sp_start_ns : int64;  (** monotonic ns since {!enable} *)
  sp_dur_ns : int64;
  sp_attrs : attr list;  (** in insertion order *)
}

val with_span : ?attrs:attr list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span.  The span is recorded when the
    thunk returns or raises; when telemetry is disabled this is just a
    call to the thunk.  The span carries the current context's trace id
    and emits a ["span"] flight event on completion. *)

val add_attr : string -> attr_value -> unit
(** Attach an attribute to the innermost open span (no-op when disabled
    or outside any span). *)

val spans : unit -> span list
(** Finished spans in start order. *)

val spans_named : string -> span list

val total_ns : string -> int64
(** Sum of durations of all finished spans with the given name. *)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type counter
type histogram

val counter : string -> counter
(** Find or register a counter.  Handles are typically created once at
    module initialisation and survive {!reset} (which only zeroes the
    value). *)

val histogram : string -> histogram

val incr : ?by:int -> counter -> unit
(** Add to a counter.  Only the counter changes: a rare event that
    needs its request attributed records its own flight event. *)

val observe : histogram -> float -> unit
(** Add an observation.  Under a request context, an observation that
    is its domain shard's new maximum also records an ["exemplar"]
    flight event carrying the value and the trace id. *)

type hist_snapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_mean : float;
  h_p50 : float;
      (** Streaming-quantile estimates from a mergeable log-bucketed
          sketch (relative error ≤ ~3.9%); exact min/max kept
          separately. *)
  h_p95 : float;
  h_p99 : float;
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  histograms : (string * hist_snapshot) list;  (** sorted by name *)
}

val snapshot : unit -> snapshot
val find_counter : snapshot -> string -> int
(** Value of a counter in a snapshot; 0 when absent. *)

(* ------------------------------------------------------------------ *)
(* Rendering and export                                                *)
(* ------------------------------------------------------------------ *)

val format_ns : int64 -> string
(** Human duration: "412ns", "3.2us", "15.4ms", "2.31s". *)

val span_to_json : span -> string
(** One-line JSON object: name, id, parent (null at top level),
    trace_id (hex), start_ms, dur_ms and an attrs object. *)

val write_jsonl : string -> (unit, string) result
(** Write every finished span, one JSON object per line, to a file.
    [Error msg] if the file cannot be written. *)

val render_metrics : snapshot -> string
(** Fixed-width table of every registered counter (zeroes included, so
    absence-of-events is visible) and every non-empty histogram with
    sketch quantiles. *)

(* ------------------------------------------------------------------ *)
(* Exposition                                                          *)
(* ------------------------------------------------------------------ *)

module Expose : sig
  val render_prometheus : snapshot -> string
  (** Prometheus text exposition: counters as [autotype_<name>_total],
      histograms as summaries with quantile labels plus [_sum]/[_count].
      Families sorted by name, each with HELP and TYPE lines.  A
      scraper derives rates from the counters and [_count]s. *)

  val lint : string -> (int, string list) result
  (** Check a text exposition for scraper-visible defects: malformed
      metric names, duplicate or missing HELP/TYPE, non-contiguous
      family samples, unparsable values.  [Ok n] gives the number of
      well-formed families. *)
end
