(** The serving daemon's event loop (see daemon.mli). *)

module Detect = Tablecorpus.Detect

let m_requests = Telemetry.counter "daemon.requests"
let m_overloaded = Telemetry.counter "daemon.overloaded"
let m_bad_frames = Telemetry.counter "daemon.bad_frames"
let m_batches = Telemetry.counter "daemon.batches"

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
   on the spot (frame errors, rejections, registry-free ops) or a
   request deferred into this cycle's per-type batches. *)
type outcome =
  | Ready of string
  | Batched of Protocol.request

let ctx_of (rq : Protocol.request) =
  match rq.rq_trace_id with
  | Some trace_id -> { Telemetry.Context.trace_id; request_id = rq.rq_id }
  | None -> Telemetry.Context.root ~request_id:rq.rq_id ()

(* Answer one validate/detect request against an already-served model.
   Budgeted or not, it takes the one serve route. *)
let answer entry trace_id (rq : Protocol.request) =
  let budgets =
    Detect.budgets ?value_budget_ms:rq.rq_value_budget_ms
      ?deadline_ms:rq.rq_deadline_ms ()
  in
  let verdicts = Detect.serve ~budgets (Detect.Loaded entry) rq.rq_values in
  match rq.rq_op with
  | Protocol.Validate -> Protocol.ok_validate ~id:rq.rq_id ~trace_id ~verdicts
  | Protocol.Detect ->
    Protocol.ok_detect ~id:rq.rq_id ~trace_id
      ~verdict:(Detect.column_verdict verdicts)
  | Protocol.Stats | Protocol.Health | Protocol.Shutdown ->
    assert false  (* never batched *)

(* Serve one per-type batch: a single registry lookup covers every
   request for the type this cycle.  Returns [(slot, response, ok)] —
   tallies are applied by the caller so this can run on a pool worker. *)
let serve_group t ((ty : string), members) =
  match Model.Registry.find t.cfg.registry ty with
  | Error err ->
    let detail = Model.Artifact.load_error_to_string err in
    List.map
      (fun (slot, (rq : Protocol.request)) ->
        let ctx = ctx_of rq in
        ( slot,
          Protocol.error ~id:rq.rq_id ~trace_id:ctx.trace_id
            ~code:"unknown_type" ~detail,
          false ))
      members
  | Ok entry ->
    List.map
      (fun (slot, (rq : Protocol.request)) ->
        let ctx = ctx_of rq in
        Telemetry.Context.with_context ctx @@ fun () ->
        match answer entry ctx.trace_id rq with
        | resp -> (slot, resp, true)
        | exception exn ->
          ( slot,
            Protocol.error ~id:rq.rq_id ~trace_id:ctx.trace_id
              ~code:"internal" ~detail:(Printexc.to_string exn),
            false ))
      members

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
           (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit"
              len Frame.max_payload))
  | Frame.Payload p ->
    Telemetry.incr m_requests;
    (match Protocol.request_of_json p with
     | Error pe ->
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
        | Protocol.Validate | Protocol.Detect -> Batched rq
        | Protocol.Health ->
          t.served <- t.served + 1;
          let ctx = ctx_of rq in
          Ready (health_response t ~id:rq.rq_id ~trace_id:ctx.trace_id)
        | Protocol.Stats ->
          t.served <- t.served + 1;
          let ctx = ctx_of rq in
          Ready
            (Protocol.ok_stats ~id:rq.rq_id ~trace_id:ctx.trace_id
               ~stats_json:
                 (Telemetry.Expose.render_json (Telemetry.snapshot ())))
        | Protocol.Shutdown -> assert false))

(* Group this cycle's batched requests by type, preserving first-seen
   type order and per-type arrival order. *)
let group_by_type batched =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (slot, (rq : Protocol.request)) ->
      let ty = Option.get rq.rq_type in
      (* guaranteed by the parser *)
      if not (Hashtbl.mem tbl ty) then begin
        Hashtbl.add tbl ty [];
        order := ty :: !order
      end;
      Hashtbl.replace tbl ty ((slot, rq) :: Hashtbl.find tbl ty))
    batched;
  List.rev !order
  |> List.map (fun ty -> (ty, List.rev (Hashtbl.find tbl ty)))

(* Process one drain cycle's worth of inbound items: classify under the
   admission budget, serve the per-type batches (on the pool when one
   is configured), then write every response back in arrival order. *)
let process_cycle t (items : (conn * Frame.item) list) =
  if items <> [] then begin
    let inflight = ref 0 in
    let outcomes =
      List.map (fun (c, item) -> (c, classify t inflight c item)) items
    in
    let arr = Array.of_list outcomes in
    let batched =
      Array.to_list arr
      |> List.mapi (fun slot (_, o) -> (slot, o))
      |> List.filter_map (function
        | slot, Batched rq -> Some (slot, rq)
        | _, Ready _ -> None)
    in
    let groups = group_by_type batched in
    Telemetry.incr ~by:(List.length groups) m_batches;
    let computed =
      Exec.map ?pool:t.cfg.pool (serve_group t) groups |> List.concat
    in
    List.iter
      (fun (slot, resp, ok) ->
        if ok then t.served <- t.served + 1;
        arr.(slot) <- (fst arr.(slot), Ready resp))
      computed;
    Array.iter
      (fun (c, outcome) ->
        match outcome with
        | Ready resp -> send c resp
        | Batched _ -> assert false)
      arr
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

let ignore_sigpipe () =
  match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ()

(* The shared loop: one blocking select per cycle, one bounded read per
   readable connection, then a full decoder drain and one batched
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
             | client, _ -> conn ~owned:true ~in_fd:client ~out_fd:client :: conns
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
  run cfg [ conn ~owned:false ~in_fd ~out_fd ]

let run_socket cfg ~path =
  (if Sys.file_exists path then
     try Unix.unlink path with Unix.Unix_error _ -> ());
  let listener = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listener with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  @@ fun () ->
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 16;
  run cfg ~listener []
