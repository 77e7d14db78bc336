(** The serving daemon's event loop (see daemon.mli). *)

module Detect = Tablecorpus.Detect

let m_requests = Telemetry.counter "daemon.requests"
let m_overloaded = Telemetry.counter "daemon.overloaded"
let m_bad_frames = Telemetry.counter "daemon.bad_frames"
let m_batches = Telemetry.counter "daemon.batches"
let m_bad_requests = Telemetry.counter "daemon.bad_requests"
let m_unknown_types = Telemetry.counter "daemon.unknown_types"
let m_internal_errors = Telemetry.counter "daemon.internal_errors"

type config = {
  registry : Model.Registry.t;
  pool : Exec.Pool.t option;
  max_inflight : int;
}

let default_max_inflight = 64

let config ?pool ?(max_inflight = default_max_inflight) registry =
  { registry; pool; max_inflight = max max_inflight 1 }

type conn = {
  c_in : Unix.file_descr;
  c_out : Unix.file_descr;
  c_dec : Frame.decoder;
  c_owned : bool;  (** accepted by us → we close it; caller's → we don't *)
  mutable c_eof : bool;  (** no more input: end of stream, poisoned decoder *)
  mutable c_dead : bool;  (** write error: nothing more can be sent *)
}

let conn ~owned ~in_fd ~out_fd =
  { c_in = in_fd; c_out = out_fd; c_dec = Frame.decoder (); c_owned = owned;
    c_eof = false; c_dead = false }

type t = {
  cfg : config;
  start_ns : int64;
  mutable served : int;  (** [ok:true] responses, all ops *)
  mutable rejected : int;  (** [overloaded] responses *)
  mutable stop : bool;
}

(* --- writing ------------------------------------------------------- *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let send c payload =
  if not c.c_dead then
    try write_all c.c_out (Frame.encode payload)
    with Unix.Unix_error _ -> c.c_dead <- true

(* --- per-cycle processing ------------------------------------------ *)

(* Outcome of classifying one inbound item: either a response computed
   on the spot (frame errors, rejections, registry-free ops) or an
   admitted validate/detect, answered in the cycle's ordered pass. *)
type outcome =
  | Ready of string
  | Admitted of Protocol.request

let ctx_of (rq : Protocol.request) =
  match rq.rq_trace_id with
  | Some trace_id -> { Telemetry.Context.trace_id; request_id = rq.rq_id }
  | None -> Telemetry.Context.root ~request_id:rq.rq_id ()

(* Answer one admitted validate/detect: look its type up, then take the
   one serve route, budgeted or not, under the request's trace context.
   Returns the response and whether it is [ok]; tallies are applied by
   the caller so this can run on a pool worker. *)
let answer t (rq : Protocol.request) =
  let ctx = ctx_of rq in
  let error code detail =
    (Protocol.error ~id:rq.rq_id ~trace_id:ctx.trace_id ~code ~detail, false)
  in
  (* the parser guarantees a validate/detect its type *)
  match Model.Registry.find t.cfg.registry (Option.get rq.rq_type) with
  | Error err ->
    Telemetry.incr m_unknown_types;
    error "unknown_type" (Model.Artifact.load_error_to_string err)
  | Ok entry ->
    Telemetry.Context.with_context ctx @@ fun () ->
    let reply () =
      let budgets =
        Detect.budgets ?value_budget_ms:rq.rq_value_budget_ms
          ?deadline_ms:rq.rq_deadline_ms ()
      in
      let verdicts = Detect.serve ~budgets (Detect.Loaded entry) rq.rq_values in
      match rq.rq_op with
      | Protocol.Validate ->
        Protocol.ok_validate ~id:rq.rq_id ~trace_id:ctx.trace_id ~verdicts
      | Protocol.Detect ->
        Protocol.ok_detect ~id:rq.rq_id ~trace_id:ctx.trace_id
          ~verdict:(Detect.column_verdict verdicts)
      | Protocol.Stats | Protocol.Health | Protocol.Shutdown ->
        assert false  (* answered by [classify] *)
    in
    match reply () with
    | resp -> (resp, true)
    | exception exn ->
      let detail = Printexc.to_string exn in
      Telemetry.incr m_internal_errors;
      Telemetry.Flight.record ~kind:"internal" detail;
      error "internal" detail

let overloaded ~id ~detail =
  Protocol.error ~id ~trace_id:0L ~code:"overloaded" ~detail

let health_response t ~id ~trace_id =
  Protocol.ok_health ~id ~trace_id
    ~models:(List.length (Model.Registry.keys t.cfg.registry))
    ~served:t.served ~rejected:t.rejected
    ~uptime_ms:
      (Int64.to_int
         (Int64.div
            (Int64.sub (Telemetry.now_ns ()) t.start_ns)
            1_000_000L))

(* Classify one inbound item under this cycle's admission budget.
   [inflight] counts requests admitted so far this cycle; [shutdown] is
   exempt from both admission and fault injection so the daemon can
   always be stopped. *)
let classify t inflight (c : conn) (item : Frame.item) : outcome =
  match item with
  | Frame.Bad_header h ->
    Telemetry.incr m_bad_frames;
    Ready
      (Protocol.error ~id:(-1) ~trace_id:0L ~code:"bad_frame"
         ~detail:(Printf.sprintf "non-numeric frame header %S" h))
  | Frame.Bad_terminator ->
    Telemetry.incr m_bad_frames;
    Ready
      (Protocol.error ~id:(-1) ~trace_id:0L ~code:"bad_frame"
         ~detail:"frame payload not terminated by newline")
  | Frame.Too_large len ->
    Telemetry.incr m_bad_frames;
    c.c_eof <- true;
    (* the oversized payload was never read: the connection is beyond
       resynchronization, so answer this cycle's items and drop it *)
    Ready
      (Protocol.error ~id:(-1) ~trace_id:0L ~code:"bad_frame"
         ~detail:
           (Printf.sprintf "frame header %s declares more than the %d-byte \
                            limit"
              (* [Frame] reports eight digits as [max_int], which no
                 client sent *)
              (if len = max_int then "of eight or more digits"
               else Printf.sprintf "%S" (string_of_int len))
              Frame.max_payload))
  | Frame.Payload p ->
    Telemetry.incr m_requests;
    (match Protocol.request_of_json p with
     | Error pe ->
       Telemetry.incr m_bad_requests;
       Ready
         (Protocol.error
            ~id:(Option.value pe.pe_id ~default:(-1))
            ~trace_id:0L ~code:"bad_request" ~detail:pe.pe_reason)
     | Ok rq when rq.rq_op = Protocol.Shutdown ->
       t.stop <- true;
       t.served <- t.served + 1;
       let ctx = ctx_of rq in
       Ready (Protocol.ok_shutdown ~id:rq.rq_id ~trace_id:ctx.trace_id)
     | Ok rq when !inflight >= t.cfg.max_inflight ->
       t.rejected <- t.rejected + 1;
       Telemetry.incr m_overloaded;
       Telemetry.Flight.record ~kind:"overloaded" "daemon.admission";
       Ready (overloaded ~id:rq.rq_id ~detail:"admission queue full")
     | Ok rq when Faults.should_reject () ->
       t.rejected <- t.rejected + 1;
       Telemetry.incr m_overloaded;
       Ready (overloaded ~id:rq.rq_id ~detail:"injected rejection")
     | Ok rq ->
       incr inflight;
       (match rq.rq_op with
        | Protocol.Validate | Protocol.Detect -> Admitted rq
        | Protocol.Health ->
          t.served <- t.served + 1;
          let ctx = ctx_of rq in
          Ready (health_response t ~id:rq.rq_id ~trace_id:ctx.trace_id)
        | Protocol.Stats ->
          t.served <- t.served + 1;
          let ctx = ctx_of rq in
          Ready
            (Protocol.ok_stats ~id:rq.rq_id ~trace_id:ctx.trace_id
               ~snapshot:(Telemetry.snapshot ()))
        | Protocol.Shutdown -> assert false))

(* Process one drain cycle's worth of inbound items in one ordered
   pass: classify each under the admission budget, answer the admitted
   validates/detects (on the pool when one is configured; [Exec.map]
   keeps their order), then tally and write every response in arrival
   order. *)
let process_cycle t (items : (conn * Frame.item) list) =
  if items <> [] then begin
    let inflight = ref 0 in
    let outcomes =
      List.map (fun (c, item) -> (c, classify t inflight c item)) items
    in
    if List.exists (function _, Admitted _ -> true | _ -> false) outcomes
    then Telemetry.incr m_batches;
    Exec.map ?pool:t.cfg.pool
      (function
        | c, Ready resp -> (c, (resp, false))  (* tallied by [classify] *)
        | c, Admitted rq -> (c, answer t rq))
      outcomes
    |> List.iter (fun (c, (resp, ok)) ->
           if ok then t.served <- t.served + 1;
           send c resp)
  end

(* --- the event loop ------------------------------------------------ *)

let drain_conn c =
  let rec go acc =
    match Frame.next c.c_dec with
    | Some item -> go ((c, item) :: acc)
    | None -> List.rev acc
  in
  go []

let read_chunk_size = 65536

let read_conn c buf =
  match Unix.read c.c_in buf 0 read_chunk_size with
  | 0 -> c.c_eof <- true
  | n -> Frame.feed c.c_dec (Bytes.sub_string buf 0 n)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error _ -> c.c_eof <- true

let close_conn c =
  if c.c_owned then begin
    (try Unix.close c.c_in with Unix.Unix_error _ -> ());
    if c.c_out <> c.c_in then
      try Unix.close c.c_out with Unix.Unix_error _ -> ()
  end

let rec select_retry rfds =
  match Unix.select rfds [] [] (-1.0) with
  | readable, _, _ -> readable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_retry rfds

(* [select] refuses, with EINVAL, a descriptor at or past FD_SETSIZE;
   the loop holds only descriptors that pass this zero-timeout probe. *)
let rec watchable fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> watchable fd
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false

let fd_limit = "descriptor past select's FD_SETSIZE limit"

(* Tell an accepted client the loop cannot watch so, and close it. *)
let refuse t c =
  t.rejected <- t.rejected + 1;
  Telemetry.incr m_overloaded;
  Telemetry.Flight.record ~kind:"overloaded" "daemon.connections";
  send c (overloaded ~id:(-1) ~detail:("connection " ^ fd_limit));
  close_conn c

let ignore_sigpipe () =
  match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ()

(* The shared loop: one blocking select per cycle, one bounded read per
   readable connection, then a full decoder drain and one ordered
   processing pass.  Because every complete frame is consumed each
   cycle, a blocking select never sits on buffered work. *)
let run cfg ?listener conns0 =
  ignore_sigpipe ();
  let t =
    { cfg; start_ns = Telemetry.now_ns (); served = 0; rejected = 0;
      stop = false }
  in
  let buf = Bytes.create read_chunk_size in
  let rec loop conns =
    if t.stop then conns
    else
      let waitable = List.filter (fun c -> not (c.c_dead || c.c_eof)) conns in
      if waitable = [] && listener = None then conns
      else begin
        let rfds =
          (match listener with Some fd -> [ fd ] | None -> [])
          @ List.map (fun c -> c.c_in) waitable
        in
        let readable = select_retry rfds in
        let conns =
          match listener with
          | Some fd when List.mem fd readable ->
            (match Unix.accept ~cloexec:true fd with
             | client, _ ->
               let c = conn ~owned:true ~in_fd:client ~out_fd:client in
               if watchable client then c :: conns
               else begin
                 refuse t c;
                 conns
               end
             | exception Unix.Unix_error _ -> conns)
          | _ -> conns
        in
        List.iter
          (fun c -> if List.mem c.c_in readable then read_conn c buf)
          conns;
        let items = List.concat_map drain_conn conns in
        process_cycle t items;
        let conns =
          List.filter
            (fun c ->
              if c.c_dead || c.c_eof then begin
                close_conn c;
                false
              end
              else true)
            conns
        in
        loop conns
      end
  in
  let conns = loop conns0 in
  List.iter close_conn conns;
  (t.served, t.rejected)

let run_fds cfg ~in_fd ~out_fd =
  if watchable in_fd then Ok (run cfg [ conn ~owned:false ~in_fd ~out_fd ])
  else Error ("input " ^ fd_limit)

let run_socket cfg ~path =
  (if Sys.file_exists path then
     try Unix.unlink path with Unix.Unix_error _ -> ());
  let listener = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listener with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  @@ fun () ->
  if not (watchable listener) then Error ("listener " ^ fd_limit)
  else begin
    Unix.bind listener (Unix.ADDR_UNIX path);
    Unix.listen listener 16;
    Ok (run cfg ~listener [])
  end
