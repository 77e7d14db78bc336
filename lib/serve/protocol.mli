(** JSON request/response encoding for the serving daemon
    (DESIGN.md §15).

    A request is one JSON object per frame:

    {v {"id":1,"op":"validate","type":"date","values":["2021-01-02"],
        "deadline_ms":50,"value_budget_ms":5,"trace_id":"00000000000000ab"} v}

    [id] and [op] are required; [type] is required for [validate] and
    [detect]; everything else is optional.  A client-supplied
    [trace_id] (16 lowercase hex digits) propagates into the daemon's
    telemetry context so one trace spans both sides of the wire;
    otherwise the daemon mints one and returns it.

    Responses echo [id], carry [ok] plus the trace id, and either the
    op-specific payload or [error]/[detail].  Validate verdicts use the
    CLI's historical words ("VALID" / "invalid" / "DEADLINE" /
    "SKIPPED") so daemon output is byte-comparable with one-shot
    [autotype validate]. *)

type op =
  | Validate
  | Detect
  | Stats
  | Health
  | Shutdown

val op_of_string : string -> op option

type request = {
  rq_id : int;
  rq_op : op;
  rq_type : string option;
  rq_values : string list;
  rq_deadline_ms : float option;  (** whole-request budget *)
  rq_value_budget_ms : float option;  (** per-value budget *)
  rq_trace_id : int64 option;  (** validated, non-zero *)
}

type parse_error = {
  pe_id : int option;  (** present when the id could still be read *)
  pe_reason : string;
}

val request_of_json : string -> (request, parse_error) result

(** {1 Response builders} — each returns the rendered JSON payload
    (not yet framed). *)

val error :
  id:int -> trace_id:int64 -> code:string -> detail:string -> string
(** Error codes in use: [overloaded], [bad_frame], [bad_request],
    [unknown_type], [internal]. *)

val ok_validate :
  id:int -> trace_id:int64 ->
  verdicts:Tablecorpus.Detect.value_verdict list -> string

val ok_detect :
  id:int -> trace_id:int64 ->
  verdict:Tablecorpus.Detect.column_verdict -> string

val ok_health :
  id:int -> trace_id:int64 -> models:int -> served:int -> rejected:int ->
  uptime_ms:int -> string

val ok_stats :
  id:int -> trace_id:int64 -> snapshot:Telemetry.snapshot -> string
(** The [stats] member is {!Ingest.snapshot_to_json}[ snapshot], the
    format [autotype stats --snapshot] reads. *)

val ok_shutdown : id:int -> trace_id:int64 -> string

(** {1 Client-side decoding} — for the load generator and tests. *)

type reply = {
  rp_id : int;
  rp_ok : bool;
  rp_trace_id : string;
  rp_body : Model.Jsonx.t;  (** full object, for op-specific fields *)
}

val reply_of_json : string -> (reply, string) result
