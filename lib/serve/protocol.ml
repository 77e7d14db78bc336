(** JSON request/response encoding for the serving daemon (see
    protocol.mli). *)

module J = Model.Jsonx

type op =
  | Validate
  | Detect
  | Stats
  | Health
  | Shutdown

let op_of_string = function
  | "validate" -> Some Validate
  | "detect" -> Some Detect
  | "stats" -> Some Stats
  | "health" -> Some Health
  | "shutdown" -> Some Shutdown
  | _ -> None

type request = {
  rq_id : int;
  rq_op : op;
  rq_type : string option;
  rq_values : string list;
  rq_deadline_ms : float option;
  rq_value_budget_ms : float option;
  rq_trace_id : int64 option;
}

(* Decode failures carry the request id when one could be parsed, so
   the error response still correlates with the caller's request. *)
type parse_error = { pe_id : int option; pe_reason : string }

let opt_member name j f =
  match J.member_opt name j with
  | None | Some J.Null -> None
  | Some v -> Some (f v)

let request_of_json payload : (request, parse_error) result =
  match J.parse payload with
  | Error msg -> Error { pe_id = None; pe_reason = "bad json: " ^ msg }
  | Ok j ->
    let id = try opt_member "id" j J.to_int with J.Decode_error _ -> None in
    let fail reason = Error { pe_id = id; pe_reason = reason } in
    (match id with
     | None -> fail "missing or non-integer \"id\""
     | Some rq_id ->
       (try
          match opt_member "op" j J.to_str with
          | None -> fail "missing \"op\""
          | Some op_s ->
            (match op_of_string op_s with
             | None -> fail (Printf.sprintf "unknown op %S" op_s)
             | Some rq_op ->
               let rq_type = opt_member "type" j J.to_str in
               let rq_values =
                 match opt_member "values" j J.to_list with
                 | None -> []
                 | Some vs -> List.map J.to_str vs
               in
               let rq_deadline_ms = opt_member "deadline_ms" j J.to_float in
               let rq_value_budget_ms =
                 opt_member "value_budget_ms" j J.to_float
               in
               let rq_trace_id =
                 match opt_member "trace_id" j J.to_str with
                 | None -> None
                 | Some s ->
                   (match Telemetry.Context.id_of_hex s with
                    | Some _ as t -> t
                    | None ->
                      raise (J.Decode_error
                               "trace_id must be 16 hex digits"))
               in
               (match rq_op with
                | Validate | Detect when rq_type = None ->
                  fail (Printf.sprintf "op %S needs \"type\"" op_s)
                | _ ->
                  Ok { rq_id; rq_op; rq_type; rq_values; rq_deadline_ms;
                       rq_value_budget_ms; rq_trace_id }))
        with J.Decode_error msg -> fail msg))

(* Responses carry the request id, the trace id the daemon ran the
   request under, and either an op-specific payload under [ok:true] or
   an [error] code under [ok:false].  Field order is fixed here (Jsonx
   objects preserve insertion order) so responses are stable bytes. *)

let base ~id ~trace_id ~ok rest =
  J.Obj
    (("id", J.Int id)
     :: ("ok", J.Bool ok)
     :: ("trace_id", J.Str (Printf.sprintf "%016Lx" trace_id))
     :: rest)
  |> J.to_string

let error ~id ~trace_id ~code ~detail =
  base ~id ~trace_id ~ok:false
    [ ("error", J.Str code); ("detail", J.Str detail) ]

let ok_validate ~id ~trace_id ~verdicts =
  base ~id ~trace_id ~ok:true
    [ ("verdicts",
       J.List
         (List.map
            (fun v -> J.Str (Tablecorpus.Detect.value_verdict_to_string v))
            verdicts)) ]

let ok_detect ~id ~trace_id ~verdict =
  let fields =
    match (verdict : Tablecorpus.Detect.column_verdict) with
    | Column_match f ->
      [ ("detected", J.Bool true); ("fraction", J.Float f) ]
    | Column_no_match f ->
      [ ("detected", J.Bool false); ("fraction", J.Float f) ]
    | Column_degraded { seen; accepted; total } ->
      [ ("degraded", J.Bool true); ("seen", J.Int seen);
        ("accepted", J.Int accepted); ("total", J.Int total) ]
  in
  base ~id ~trace_id ~ok:true fields

let ok_health ~id ~trace_id ~models ~served ~rejected ~uptime_ms =
  base ~id ~trace_id ~ok:true
    [ ("models", J.Int models); ("served", J.Int served);
      ("rejected", J.Int rejected); ("uptime_ms", J.Int uptime_ms) ]

let ok_stats ~id ~trace_id ~snapshot =
  base ~id ~trace_id ~ok:true [ ("stats", Ingest.snapshot_to_json snapshot) ]

let ok_shutdown ~id ~trace_id =
  base ~id ~trace_id ~ok:true [ ("bye", J.Bool true) ]

(** {1 Client-side decoding} — used by the bench and the tests. *)

type reply = {
  rp_id : int;
  rp_ok : bool;
  rp_trace_id : string;
  rp_body : J.t;  (** the whole response object, for op-specific fields *)
}

let reply_of_json payload : (reply, string) result =
  match J.parse payload with
  | Error msg -> Error ("bad json: " ^ msg)
  | Ok j ->
    (try
       Ok
         { rp_id = J.to_int (J.member "id" j);
           rp_ok = J.to_bool (J.member "ok" j);
           rp_trace_id = J.to_str (J.member "trace_id" j);
           rp_body = j }
     with J.Decode_error msg -> Error msg)
