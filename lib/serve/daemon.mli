(** The serving daemon: a persistent process answering framed
    {!Protocol} requests over stdio, an inherited fd pair, or a Unix
    domain socket (DESIGN.md §15).

    {b Drain-cycle model.}  The loop blocks in [select], takes one
    bounded read per readable connection, drains every complete frame,
    and processes the whole batch before selecting again.  Admission
    control and request batching both live at this cycle granularity:

    - {e Admission:} at most [max_inflight] requests are admitted per
      cycle; the rest are answered immediately with an [overloaded]
      error instead of queueing unboundedly.  [shutdown] is exempt so
      the daemon can always be stopped.  The fault layer's [p_reject]
      ({!Faults.should_reject}) injects extra rejections for chaos
      testing.
    - {e Batching:} admitted validate/detect requests are grouped by
      type; each type costs one {!Model.Registry.find} (one LRU lock
      round-trip, one possible artifact load) per cycle, no matter how
      many requests named it.  Every request is then answered by
      {!Tablecorpus.Detect.serve}, budgeted or not, and a detect's
      column by {!Tablecorpus.Detect.column_verdict}.  Groups run
      through {!Exec.map} on the configured pool.  Responses are
      written back in arrival order per connection.

    Per-request work runs under a {!Telemetry.Context} — adopted from
    the request's [trace_id] when present, minted otherwise — so spans
    and flight events are attributable across the wire.  A request that
    raises is answered with an [internal] error; the daemon itself does
    not crash.  Every rejection is counted: [bad_frame] in
    [daemon.bad_frames], [overloaded] in [daemon.overloaded],
    [bad_request] in [daemon.bad_requests], [unknown_type] in
    [daemon.unknown_types] and [internal] in [daemon.internal_errors],
    which also records an [internal] flight event with the exception
    text.

    The daemon keeps its own always-on served/rejected tallies for
    [health] responses: {!Telemetry} counters are gated on the global
    enable flag and a long-lived process must not depend on it. *)

type config = {
  registry : Model.Registry.t;
  pool : Exec.Pool.t option;  (** per-cycle type groups run on it *)
  max_inflight : int;  (** admission budget per drain cycle *)
}

val default_max_inflight : int
(** 64. *)

val config :
  ?pool:Exec.Pool.t -> ?max_inflight:int -> Model.Registry.t -> config
(** [max_inflight] is clamped to at least 1. *)

val run_fds :
  config -> in_fd:Unix.file_descr -> out_fd:Unix.file_descr -> int * int
(** Serve one connection on an fd pair (stdio, a pipe pair, or both
    ends of a socketpair) until EOF on [in_fd] or a [shutdown] request.
    The fds are the caller's to close.  Returns [(served, rejected)]
    totals. *)

val run_socket : config -> path:string -> int * int
(** Listen on a Unix domain socket, serving any number of concurrent
    connections, until a [shutdown] request arrives on any of them.  A
    stale socket file at [path] is unlinked first; the socket is
    unlinked again on the way out. *)
