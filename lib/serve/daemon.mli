(** The serving daemon: a persistent process answering framed
    {!Protocol} requests over stdio, an inherited fd pair, or a Unix
    domain socket (DESIGN.md §15).

    {b Drain-cycle model.}  The loop blocks in [select], takes one
    bounded read per readable connection, drains every complete frame,
    and answers the cycle's items in one ordered pass before selecting
    again:

    - {e Admission:} at most [max_inflight] requests are admitted per
      cycle; the rest are answered immediately with an [overloaded]
      error instead of queueing unboundedly.  [shutdown] is exempt so
      the daemon can always be stopped.  The fault layer's [p_reject]
      ({!Faults.should_reject}) injects extra rejections for chaos
      testing.  A client whose descriptor [select] cannot watch (at or
      past FD_SETSIZE) gets one [overloaded] frame (id -1) and is
      closed.
    - {e Answering:} each admitted validate/detect makes its own
      {!Model.Registry.find} and is answered by
      {!Tablecorpus.Detect.serve}, budgeted or not, and a detect's
      column by {!Tablecorpus.Detect.column_verdict}, through one
      order-keeping {!Exec.map} on the configured pool.  Responses are
      written in arrival order.

    Per-request work runs under a {!Telemetry.Context} — adopted from
    the request's [trace_id] when present, minted otherwise — so spans
    and flight events are attributable across the wire.  A request that
    raises is answered with an [internal] error; the daemon itself does
    not crash.  Every rejection is counted: [bad_frame] in
    [daemon.bad_frames], [overloaded] in [daemon.overloaded] (a refused
    connection also records an [overloaded] flight event labelled
    [daemon.connections]), [bad_request] in [daemon.bad_requests],
    [unknown_type] in [daemon.unknown_types] and [internal] in
    [daemon.internal_errors], which also records an [internal] flight
    event with the exception text.

    The daemon keeps its own always-on served/rejected tallies for
    [health] responses: {!Telemetry} counters are gated on the global
    enable flag and a long-lived process must not depend on it. *)

type config = {
  registry : Model.Registry.t;
  pool : Exec.Pool.t option;  (** each cycle's requests run on it *)
  max_inflight : int;  (** admission budget per drain cycle *)
}

val default_max_inflight : int
(** 64. *)

val config :
  ?pool:Exec.Pool.t -> ?max_inflight:int -> Model.Registry.t -> config
(** [max_inflight] is clamped to at least 1. *)

val run_fds :
  config -> in_fd:Unix.file_descr -> out_fd:Unix.file_descr ->
  (int * int, string) result
(** Serve one connection on an fd pair (stdio, a pipe pair, or both
    ends of a socketpair) until EOF on [in_fd] or a [shutdown] request.
    The fds are the caller's to close.  Returns [(served, rejected)]
    totals, or [Error], before serving anything, when [select] cannot
    watch [in_fd]. *)

val run_socket : config -> path:string -> (int * int, string) result
(** Listen on a Unix domain socket, serving any number of concurrent
    connections, until a [shutdown] request arrives on any of them.  A
    stale socket file at [path] is unlinked first; the socket is
    unlinked again on the way out.  [Error] when [select] cannot watch
    the listening socket. *)
