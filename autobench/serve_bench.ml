(* The [serve_small] and [serve_columns] workloads: the real
   [autotype serve --stdio --jobs 1] daemon in its own process, driven
   over one connection (its stdin/stdout) by a single-threaded load
   generator in this process.  Each run has an open-loop phase at a
   fixed rate (latency from each request's scheduled send) followed by
   a closed-loop phase at a fixed pipelining depth (throughput).  Every
   reply is checked byte for byte against an in-process replay of the
   same request sequence through the daemon's own layers; the traced
   run times that replay layer by layer. *)

open Common
module J = Model.Jsonx
module D = Tablecorpus.Detect
module Proto = Serve.Protocol
module Frame = Serve.Frame

type workload = Small | Columns

type opts = {
  workload : workload;
  seed : int;
  seconds : int;
  trace : bool;
  autotype : string;  (** the daemon executable *)
  smoke : bool;  (** tiny counts and a 3-type model set *)
  tamper : bool;  (** corrupt one expected reply (smoke test) *)
}

(* --- work sizes ----------------------------------------------------------
   Rates are constants, never re-measured per run: a run's work is fixed
   by its seed and --seconds alone.  Capacities measured on a 2-vCPU
   container (generator and daemon each on one core): see README.md. *)

type sizes = {
  open_rate : float;  (** open-loop requests per second *)
  open_share : float;  (** share of --seconds spent in the open loop *)
  closed_rate : float;  (** expected closed-loop replies per second *)
  closed_share : float;  (** share of --seconds spent in the closed loop *)
  depth : int;  (** closed-loop pipelining depth, below the default admission budget (64) *)
  slo_ms : float;  (** fixed latency limit for slo_met_frac *)
}

let sizes = function
  | Small ->
    { open_rate = 1000.0; open_share = 0.7; closed_rate = 30000.0;
      closed_share = 0.2; depth = 48; slo_ms = 2.0 }
  | Columns ->
    { open_rate = 40.0; open_share = 0.7; closed_rate = 350.0;
      closed_share = 0.2; depth = 8; slo_ms = 50.0 }

(* Budgets on every serve_columns request: far above any value's cost,
   so they never fire, but present, so every value takes the budgeted
   VM route. *)
let deadline_ms = 10_000.0
let value_budget_ms = 1_000.0
(* Set-up repetitions: besides the daemon that serves the load, fresh
   daemons started and shut down between the load's chunks, so that the
   median of [setup_s] samples the host's speed over the whole run
   rather than in the spell before the load starts. *)
let setup_probes_per_chunk = 1
let column_values = 200

(* The daemon's per-cycle admission budget.  Its default, 64, refused
   open-loop requests whenever a host stall held back more than 64 of
   them: this process then sends every overdue request at once and the
   daemon reads them in one drain cycle.  One cycle reads at most 64 KB
   from the connection, fewer than 800 of this benchmark's requests
   (the smallest frame is 85 bytes), so at this budget no request is
   ever refused; without a stall, cycles hold at most the closed loop's
   depth and the budget never comes into play. *)
let max_inflight = 1024

let workload_name = function Small -> "serve_small" | Columns -> "serve_columns"

(* --- requests ---------------------------------------------------------------- *)

type req = {
  id : int;
  ty : string;
  values : string list;
  truth : bool;
      (** Small: the ground-truth verdict of the one value; Columns:
          whether the column's true type is [ty] *)
  frame : string;  (** the framed request, as sent *)
}

let request_payload w ~id ~ty ~values ~trace =
  let base =
    [ ("id", J.Int id);
      ("op", J.Str (match w with Small -> "validate" | Columns -> "detect"));
      ("type", J.Str ty);
      ("values", J.List (List.map (fun v -> J.Str v) values));
      ("trace_id", J.Str (Telemetry.Context.id_to_hex trace)) ]
  in
  let budgets =
    match w with
    | Small -> []
    | Columns ->
      [ ("deadline_ms", J.Float deadline_ms);
        ("value_budget_ms", J.Float value_budget_ms) ]
  in
  J.to_string (J.Obj (base @ budgets))

let make_req w ~seed ~id ~ty ~values ~truth =
  let trace = trace_id ~seed id in
  { id; ty; values; truth; frame = Frame.encode (request_payload w ~id ~ty ~values ~trace) }

(* Seeded request contents for a given type.  Small: one value, half
   the time a held-out positive, otherwise a true negative.  Columns: a
   uniformly drawn 200-value web-table column. *)
let request_maker w ~seed (types : string array) =
  let st = rng ~seed 2 in
  match w with
  | Small ->
    let pools = Hashtbl.create 32 in
    Array.iter
      (fun id ->
        let ty = Semtypes.Registry.find_exn id in
        let pos =
          Semtypes.Registry.positive_examples ~n:50
            ~seed:(Hashtbl.hash (seed, id, "held-out"))
            ty
        in
        let neg =
          Eval.Benchmark.negative_test_pool ~n:50 ~seed:(Hashtbl.hash (seed, id)) ty
        in
        Hashtbl.add pools id
          (Option.get ty.Semtypes.Registry.validator, Array.of_list pos, Array.of_list neg))
      types;
    fun ~id ~ty ->
      let oracle, pos, neg = Hashtbl.find pools ty in
      let pool = if Random.State.bool st then pos else neg in
      let v = pool.(Random.State.int st (Array.length pool)) in
      make_req w ~seed ~id ~ty ~values:[ v ] ~truth:(oracle v)
  | Columns ->
    let columns =
      Array.of_list
        (Tablecorpus.Webtables.generate
           ~config:
             { Tablecorpus.Webtables.n_columns = 150;
               values_per_column = column_values; dirty_fraction = 0.08;
               seed = Hashtbl.hash (seed, "webtables") }
           ())
    in
    fun ~id ~ty ->
      let col = columns.(Random.State.int st (Array.length columns)) in
      make_req w ~seed ~id ~ty ~values:col.Tablecorpus.Webtables.values
        ~truth:(col.Tablecorpus.Webtables.truth = Some ty)

(* One single-value validate per served type: the setup's warm-up. *)
let warmup_reqs ~seed types =
  Array.mapi
    (fun i id ->
      let ty = Semtypes.Registry.find_exn id in
      let v = List.hd (Semtypes.Registry.positive_examples ~n:1 ~seed:11 ty) in
      make_req Small ~seed ~id:(1_000_000 + i) ~ty:id ~values:[ v ] ~truth:true)
    types

(* --- models (compiled before anything is timed) -------------------------- *)

let fail msg =
  say "serve: %s" msg;
  exit 1

(* [autotype compile] in a child process, as a user would before
   serving; this process never synthesizes, so its heap stays small
   and its collector does not disturb the load it generates. *)
let compile_models ~autotype ~log dir types =
  let args =
    [ autotype; "compile"; "--out"; dir; "--jobs"; "1" ]
    @ List.concat_map (fun t -> [ "--type"; t ]) (Array.to_list types)
  in
  let fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let pid = Unix.create_process autotype (Array.of_list args) Unix.stdin fd fd in
  Unix.close fd;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> fail ("autotype compile failed; see " ^ log)

(* --- the daemon process ------------------------------------------------ *)

type daemon = {
  pid : int;
  to_d : Unix.file_descr;  (** its stdin; ours is non-blocking *)
  from_d : Unix.file_descr;  (** its stdout *)
  dec : Frame.decoder;
  chunk : Bytes.t;
  outq : string Queue.t;  (** frames not yet fully written *)
  mutable out_off : int;  (** bytes of the head frame already written *)
  spawn_ns : int64;
}

let spawn ~autotype ~models ~stats ~log =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let args =
    on_daemon_cpu
      ([ autotype; "serve"; "--models"; models; "--stdio"; "--jobs"; "1";
         "--max-inflight"; string_of_int max_inflight ]
       @ if stats then [ "--stats" ] else [])
  in
  let spawn_ns = now_ns () in
  let pid = Unix.create_process (List.hd args) (Array.of_list args) in_r out_w err in
  Unix.close in_r;
  Unix.close out_w;
  Unix.close err;
  Unix.set_nonblock in_w;
  Unix.set_nonblock out_r;
  { pid; to_d = in_w; from_d = out_r; dec = Frame.decoder ();
    chunk = Bytes.create 65536; outq = Queue.create (); out_off = 0; spawn_ns }

(* Write as much queued output as the pipe takes. *)
let rec flush d =
  match Queue.peek_opt d.outq with
  | None -> ()
  | Some s ->
    let len = String.length s - d.out_off in
    (match Unix.write_substring d.to_d s d.out_off len with
     | w when w = len ->
       ignore (Queue.pop d.outq);
       d.out_off <- 0;
       flush d
     | w -> d.out_off <- d.out_off + w
     | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ())

(* One select round: write what is pending, read what is there, and hand
   every complete reply payload to [on_reply] with its arrival time. *)
let pump d ~timeout ~on_reply =
  let want_write = not (Queue.is_empty d.outq) in
  match
    Unix.select [ d.from_d ] (if want_write then [ d.to_d ] else []) [] timeout
  with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, writable, _ ->
    if writable <> [] then flush d;
    if readable <> [] then begin
      match Unix.read d.from_d d.chunk 0 (Bytes.length d.chunk) with
      | 0 -> fail "the daemon closed the connection"
      | n ->
        let now = now_ns () in
        Frame.feed d.dec (Bytes.sub_string d.chunk 0 n);
        let rec drain () =
          match Frame.next d.dec with
          | Some (Frame.Payload p) -> on_reply now p; drain ()
          | Some (Frame.Bad_header h) -> fail (Printf.sprintf "bad frame header from the daemon: %S" h)
          | Some Frame.Bad_terminator -> fail "unterminated frame from the daemon"
          | Some (Frame.Too_large k) -> fail (Printf.sprintf "oversized frame (%d bytes) from the daemon" k)
          | None -> ()
        in
        drain ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    end

(* Id and ok flag of a reply, read from the prefix {"id":N,"ok":B that
   [Protocol] puts first in every reply; anything else fails the run. *)
let reply_id p =
  let n = String.length p and ok_true = {|,"ok":true|} in
  if n < 8 || String.sub p 0 6 <> {|{"id":|} then fail ("unexpected reply: " ^ p);
  let i = ref 6 and id = ref 0 in
  while !i < n && p.[!i] >= '0' && p.[!i] <= '9' do
    id := (!id * 10) + Char.code p.[!i] - 48;
    incr i
  done;
  if !i = 6 then fail ("unexpected reply: " ^ p);
  (!id, !i + String.length ok_true <= n && String.sub p !i (String.length ok_true) = ok_true)

(* Send one control request and wait for its reply (the connection is
   quiet when this is called). *)
let call d payload =
  Queue.push (Frame.encode payload) d.outq;
  let got = ref None in
  let t0 = now_ns () in
  while !got = None do
    if s_between t0 (now_ns ()) > 30.0 then fail "daemon did not answer a control request";
    pump d ~timeout:0.05 ~on_reply:(fun _ p -> got := Some p)
  done;
  Option.get !got

(* Shut the daemon down and wait for it.  With --stats the daemon
   prints its metrics table on stdout right after the shutdown reply,
   often in the same read, so everything after that reply is ignored. *)
let shutdown d =
  Queue.push (Frame.encode {|{"id":2000000001,"op":"shutdown"}|}) d.outq;
  while not (Queue.is_empty d.outq) do
    ignore (Unix.select [] [ d.to_d ] [] 1.0);
    flush d
  done;
  Unix.close d.to_d;
  let bye = ref false in
  let rec drain () =
    match Unix.select [ d.from_d ] [] [] 10.0 with
    | [], _, _ -> ()
    | _ ->
      (match Unix.read d.from_d d.chunk 0 (Bytes.length d.chunk) with
       | 0 -> ()
       | n ->
         if not !bye then begin
           Frame.feed d.dec (Bytes.sub_string d.chunk 0 n);
           match Frame.next d.dec with
           | Some (Frame.Payload p) -> bye := fst (reply_id p) = 2000000001
           | _ -> ()
         end;
         drain ()
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> drain ())
  in
  drain ();
  Unix.close d.from_d;
  gate !bye "daemon did not acknowledge shutdown";
  match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> gate false "daemon exited abnormally"

(* --- load generation ------------------------------------------------- *)

type outcome = {
  sched_ns : int64 array;  (** when each request was due (open loop) or queued *)
  sent_ns : int64 array;  (** when the generator queued it for writing *)
  done_ns : int64 array;  (** when its reply arrived; 0 = none *)
  ok : bool array;
  payload : string array;
  span_s : float;  (** first due send to last reply *)
}

let new_outcome n =
  { sched_ns = Array.make n 0L; sent_ns = Array.make n 0L;
    done_ns = Array.make n 0L; ok = Array.make n false;
    payload = Array.make n ""; span_s = 0.0 }

(* Drive [reqs] through the daemon.  [rate] > 0: open loop, request i
   due at t0 + i/rate whatever the replies do.  [rate] = 0: closed loop
   with [depth] requests outstanding.  Ends when every request has its
   reply, or fails the run when the daemon stops answering. *)
let drive d (reqs : req array) ~rate ~depth =
  let n = Array.length reqs in
  let o = new_outcome n in
  let base_id = if n = 0 then 0 else reqs.(0).id in
  let completed = ref 0 and next = ref 0 in
  let t0 = now_ns () in
  let gap_ns = if rate > 0.0 then 1e9 /. rate else 0.0 in
  let due i = Int64.add t0 (Int64.of_float (float_of_int i *. gap_ns)) in
  let last_progress = ref t0 in
  let on_reply now p =
    let id, ok = reply_id p in
    let i = id - base_id in
    if i >= 0 && i < n && o.done_ns.(i) = 0L then begin
      o.done_ns.(i) <- now;
      o.ok.(i) <- ok;
      o.payload.(i) <- p;
      incr completed;
      last_progress := now
    end
    else gate false "unexpected or duplicate reply id %d" id
  in
  let enqueue i now =
    o.sched_ns.(i) <- (if rate > 0.0 then due i else now);
    o.sent_ns.(i) <- now;
    Queue.push reqs.(i).frame d.outq;
    incr next
  in
  (try
     while !completed < n do
       let now = now_ns () in
       if rate > 0.0 then
         while !next < n && Int64.compare (due !next) now <= 0 do
           enqueue !next now
         done
       else
         while !next < n && !next - !completed < depth do
           enqueue !next now
         done;
       flush d;
       pump d ~timeout:0.0 ~on_reply;
       if s_between !last_progress (now_ns ()) > 20.0 && !next >= n then begin
         gate false "%d request(s) never answered" (n - !completed);
         raise Exit
       end
     done
   with Exit -> ());
  let last = Array.fold_left Int64.max t0 o.done_ns in
  { o with span_s = s_between t0 last }

(* Spawn a daemon and get one warm-up reply per served type; returns
   the daemon and the seconds from spawn to the last warm-up reply. *)
let start ~autotype ~models ~stats ~log warm =
  let d = spawn ~autotype ~models ~stats ~log in
  let o = drive d warm ~rate:0.0 ~depth:(Array.length warm) in
  let setup_s = s_between d.spawn_ns (Array.fold_left Int64.max 0L o.done_ns) in
  Array.iteri
    (fun i ok -> gate ok "warm-up request for %s failed" warm.(i).ty)
    o.ok;
  (d, setup_s)

let counter_of_stats payload name =
  match J.parse payload with
  | Error _ -> 0
  | Ok j ->
    (match J.member_opt "stats" j with
     | Some s ->
       (match J.member_opt "counters" s with
        | Some c ->
          (match J.member_opt name c with Some (J.Int n) -> n | _ -> 0)
        | None -> 0)
     | None -> 0)

let health d =
  let p = call d {|{"id":2000000002,"op":"health"}|} in
  match J.parse p with
  | Ok j ->
    let g k = match J.member_opt k j with Some (J.Int n) -> n | _ -> -1 in
    (g "served", g "rejected")
  | Error _ -> (-1, -1)

(* --- the in-process replay ---------------------------------------------- *)

type replay = {
  expected : string array;  (** the reply payload each request must get *)
  verdict_ok : bool array;  (** verdict equals the ground truth *)
  request_us : float array;  (** replay time per request *)
  detect_us_per_value : float array;
}

(* Whether [serve_detector] answers this model's values from the
   compiled fast path (values up to [D.fastpath_max_len]). *)
let has_fastpath (entry : Model.Registry.entry) =
  match entry.Model.Registry.artifact.Model.Artifact.summary with
  | None -> false
  | Some tree -> Absint.Domain.prepare tree <> None

(* Replay [reqs] through the daemon's layers, in the daemon's order:
   Frame, Protocol decode, Registry.find, Detect, Protocol encode,
   Frame.encode.  Each call is a span when spans are on. *)
let run_replay w registry (reqs : req array) =
  let n = Array.length reqs in
  let r =
    { expected = Array.make n ""; verdict_ok = Array.make n false;
      request_us = Array.make n 0.0; detect_us_per_value = Array.make n 0.0 }
  in
  let dec = Frame.decoder () in
  let fast = Hashtbl.create 32 in
  let span = Spans.with_span in
  Array.iteri
    (fun i (q : req) ->
      let t0 = now_ns () in
      let key = string_of_int q.id in
      let resp, verdict_ok, detect_ns =
        span ~key "serve.request" @@ fun () ->
        let payload =
          span "serve.frame" (fun () ->
              Frame.feed dec q.frame;
              match Frame.next dec with
              | Some (Frame.Payload p) -> p
              | _ -> fail "replay: request frame did not decode")
        in
        let rq =
          span "serve.protocol.decode" (fun () ->
              match Proto.request_of_json payload with
              | Ok rq -> rq
              | Error e -> fail ("replay: " ^ e.Proto.pe_reason))
        in
        let entry =
          span "model.registry" (fun () ->
              match Model.Registry.find registry q.ty with
              | Ok e -> e
              | Error e -> fail (Model.Artifact.load_error_to_string e))
        in
        let trace_id = Option.get rq.Proto.rq_trace_id in
        let d0 = now_ns () in
        let resp, verdict_ok =
          match w with
          | Small ->
            let det = span "tablecorpus.detect.build" (fun () -> D.serve_detector entry) in
            let fast_ok =
              match Hashtbl.find_opt fast q.ty with
              | Some b -> b
              | None ->
                let b = has_fastpath entry in
                Hashtbl.add fast q.ty b;
                b
            in
            let verdicts =
              List.map
                (fun v ->
                  let route =
                    if fast_ok && String.length v <= D.fastpath_max_len then
                      "tablecorpus.detect.fast"
                    else "tablecorpus.detect.vm"
                  in
                  span route (fun () ->
                      if det.D.accepts v then D.V_valid else D.V_invalid))
                rq.Proto.rq_values
            in
            let resp =
              span "serve.protocol.encode" (fun () ->
                  Proto.ok_validate ~id:rq.Proto.rq_id ~trace_id ~verdicts)
            in
            (resp, (List.hd verdicts = D.V_valid) = q.truth)
          | Columns ->
            let verdict =
              span "tablecorpus.detect.vm" (fun () ->
                  let budgets = D.budgets ~value_budget_ms ~deadline_ms () in
                  D.serve_column ~budgets entry.Model.Registry.synthesis
                    rq.Proto.rq_values)
            in
            let resp =
              span "serve.protocol.encode" (fun () ->
                  Proto.ok_detect ~id:rq.Proto.rq_id ~trace_id ~verdict)
            in
            let detected =
              match verdict with D.Column_match _ -> Some true | D.Column_no_match _ -> Some false | D.Column_degraded _ -> None
            in
            (resp, detected = Some q.truth)
        in
        let detect_ns = Int64.sub (now_ns ()) d0 in
        ignore (span "serve.frame" (fun () -> Frame.encode resp));
        (resp, verdict_ok, detect_ns)
      in
      r.request_us.(i) <- ms_between t0 (now_ns ()) *. 1000.0;
      r.expected.(i) <- resp;
      r.verdict_ok.(i) <- verdict_ok;
      r.detect_us_per_value.(i) <-
        Int64.to_float detect_ns /. 1000.0 /. float_of_int (max 1 (List.length q.values)))
    reqs;
  r

(* --- the run ---------------------------------------------------------------- *)

let served_types ~smoke =
  let popular =
    List.map (fun (t : Semtypes.Registry.t) -> t.Semtypes.Registry.id) Semtypes.Registry.popular
  in
  Array.of_list (if smoke then [ "issn"; "ipv4"; "email" ] else popular)

(* The load alternates open-loop and closed-loop chunks, [rounds] of
   each, so both kinds of sample span the whole run: a spell of host
   slowness then moves every metric a little instead of one metric a
   lot. *)
let rounds = 20

type chunk = { first : int; len : int; closed : bool }

(* Requests in sending order, chunk by chunk.  Requests cycle through
   the served types in one seeded order, so every type is equally
   likely at every position, yet every run serves the same mix at the
   same spacing: the costliest types, and the requests queued behind
   them, weigh the same in every run instead of with the luck of the
   draw. *)
let build ~seed w types ~open_per_round ~closed_per_round =
  let make = request_maker w ~seed types in
  let cycle = shuffle (rng ~seed 3) types in
  let reqs = ref [] and chunks = ref [] and pos = ref 0 in
  let add len closed =
    let tys = Array.init len (fun i -> cycle.(i mod Array.length cycle)) in
    Array.iteri (fun k ty -> reqs := make ~id:(!pos + k + 1) ~ty :: !reqs) tys;
    chunks := { first = !pos; len; closed } :: !chunks;
    pos := !pos + len
  in
  for _ = 1 to rounds do
    add open_per_round false;
    add closed_per_round true
  done;
  (Array.of_list (List.rev !reqs), List.rev !chunks)

(* One daemon's answers to the whole request sequence, flattened back
   into sending order; [between] runs before each chunk, while the
   daemon is idle. *)
type load = {
  out : outcome;
  closed : bool array;
  closed_rates : float array;  (** replies per second of each closed chunk *)
}

let run_load ?(between = ignore) d sz (reqs : req array) chunks =
  let n = Array.length reqs in
  let out = new_outcome n and closed = Array.make n false in
  let rates = ref [] in
  List.iter
    (fun c ->
      between ();
      let o =
        drive d (Array.sub reqs c.first c.len)
          ~rate:(if c.closed then 0.0 else sz.open_rate) ~depth:sz.depth
      in
      let blit src dst = Array.blit src 0 dst c.first c.len in
      blit o.sched_ns out.sched_ns;
      blit o.sent_ns out.sent_ns;
      blit o.done_ns out.done_ns;
      blit o.ok out.ok;
      blit o.payload out.payload;
      Array.fill closed c.first c.len c.closed;
      if c.closed then rates := (float_of_int c.len /. o.span_s) :: !rates)
    chunks;
  { out; closed; closed_rates = Array.of_list (List.rev !rates) }

(* Median of the closed-loop chunks' replies per second: a spell of
   host slowness that spans a few chunks does not move it. *)
let throughput l = median l.closed_rates

let show_rounds label xs =
  String.concat " " (Array.to_list (Array.map (Printf.sprintf label) xs))

let open_indices l =
  List.filter (fun i -> not l.closed.(i)) (List.init (Array.length l.closed) Fun.id)

(* Latency from each open-loop request's scheduled send to its reply. *)
let latency_ms l i = ms_between l.out.sched_ns.(i) l.out.done_ns.(i)

(* Open-loop p50 of each round, in order: the host's speed over the run. *)
let round_p50s l chunks =
  Array.of_list
    (List.filter_map
       (fun (c : chunk) ->
         if c.closed then None
         else
           Some
             (percentile 50.0
                (Array.of_list
                   (List.filter_map
                      (fun i -> if l.out.done_ns.(i) = 0L then None else Some (latency_ms l i))
                      (List.init c.len (fun k -> c.first + k))))))
       chunks)

let open_latencies l =
  Array.of_list
    (List.filter_map
       (fun i -> if l.out.done_ns.(i) = 0L then None else Some (latency_ms l i))
       (open_indices l))

(* How late the generator queued each open-loop request. *)
let open_lag l =
  Array.of_list
    (List.map
       (fun i -> Float.max 0.0 (ms_between l.out.sched_ns.(i) l.out.sent_ns.(i)))
       (open_indices l))

let count_ok l = Array.fold_left (fun a b -> if b then a + 1 else a) 0 l.out.ok

(* Byte-compare every reply with the replay. *)
let check_replies (reqs : req array) l (expected : string array) =
  let mismatches = ref 0 in
  Array.iteri
    (fun i (q : req) ->
      if l.out.done_ns.(i) <> 0L && l.out.payload.(i) <> expected.(i) then begin
        incr mismatches;
        if !mismatches <= 3 then
          say "reply %d differs from the replay:\n  daemon: %s\n  replay: %s" q.id
            l.out.payload.(i) expected.(i)
      end)
    reqs;
  gate (!mismatches = 0) "%d daemon repl(ies) differ from the in-process replay" !mismatches

(* Mean of [values] over the open-loop issn requests, in successive
   quarters: the Script_var compile-cache growth shows as a rising
   sequence. *)
let issn_quarters (reqs : req array) l values =
  let xs =
    Array.of_list
      (List.filter_map
         (fun i -> if reqs.(i).ty = "issn" then Some values.(i) else None)
         (open_indices l))
  in
  let n = Array.length xs in
  if n < 4 then [||]
  else Array.init 4 (fun k -> mean (Array.sub xs (k * n / 4) (((k + 1) * n / 4) - (k * n / 4))))

let show_quarters label qs =
  if qs <> [||] then
    say "%s: %s" label
      (String.concat " -> " (Array.to_list (Array.map (Printf.sprintf "%.1f") qs)))

type env = {
  o : opts;
  sz : sizes;
  types : string array;
  models : string;
  log : string;
  reqs : req array;
  chunks : chunk list;
  warm : req array;
}

let open_registry env =
  match Model.Registry.open_dir env.models with Ok r -> r | Error m -> fail m

let start_daemon env ~stats =
  start ~autotype:env.o.autotype ~models:env.models ~stats ~log:env.log env.warm

(* The timed run: set-up, the load with more set-ups between its
   chunks, then the replay as the correctness oracle. *)
let run_timed env =
  let w = env.o.workload and sz = env.sz and reqs = env.reqs in
  let d, setup_s = start_daemon env ~stats:false in
  let setups = ref [ setup_s ] in
  let probe_wall = ref 0.0 and probe_cpu = ref 0.0 in
  let between () =
    let t0 = now_ns () and c0 = self_cpu_s () in
    for _ = 1 to setup_probes_per_chunk do
      let p, s = start_daemon env ~stats:false in
      shutdown p;
      setups := s :: !setups
    done;
    probe_wall := !probe_wall +. s_between t0 (now_ns ());
    probe_cpu := !probe_cpu +. self_cpu_s () -. c0
  in
  let d_cpu0 = cpu_s d.pid and g_cpu0 = self_cpu_s () and wall0 = now_ns () in
  let l = run_load ~between d sz reqs env.chunks in
  let wall = s_between wall0 (now_ns ()) -. !probe_wall in
  let d_cpu = cpu_s d.pid -. d_cpu0 and g_cpu = self_cpu_s () -. g_cpu0 -. !probe_cpu in
  let served, rejected = health d in
  let peak = peak_rss_mb d.pid in
  shutdown d;
  (* library telemetry on during the replay, to count deadline hits *)
  Telemetry.reset ();
  Telemetry.enable ();
  let r = run_replay w (open_registry env) reqs in
  Telemetry.disable ();
  let snap = Telemetry.snapshot () in
  let hits = Telemetry.find_counter snap "serve.deadline_hits" in
  let degraded = Telemetry.find_counter snap "serve.degraded" in
  gate (hits = 0 && degraded = 0) "%d deadline hit(s), %d degraded column(s)" hits degraded;
  if env.o.tamper then r.expected.(0) <- r.expected.(0) ^ " ";
  check_replies reqs l r.expected;
  let n = Array.length reqs in
  let lat = open_latencies l and lag = open_lag l in
  let n_open = Array.length lag in
  let within =
    List.length
      (List.filter
         (fun i -> l.out.ok.(i) && latency_ms l i <= sz.slo_ms)
         (open_indices l))
  in
  let right = ref 0 in
  Array.iteri (fun i b -> if b && l.out.ok.(i) then incr right) r.verdict_ok;
  let ok = count_ok l in
  say "open loop at %.0f/s: p50 %.3f ms, p90 %.3f ms (n=%d); p99 %.3f ms, max %.3f ms"
    sz.open_rate (percentile 50.0 lat) (percentile 90.0 lat) (Array.length lat)
    (percentile 99.0 lat) (fmax lat);
  say "open-loop p50 by round (ms): %s" (show_rounds "%.3f" (round_p50s l env.chunks));
  say "closed loop at depth %d: median %.0f replies/s over %d rounds (%s)" sz.depth
    (throughput l) rounds (show_rounds "%.0f" l.closed_rates);
  say "generator lateness: p50 %.3f ms, p99 %.3f ms, max %.3f ms (n=%d)"
    (percentile 50.0 lag) (percentile 99.0 lag) (fmax lag) n_open;
  say "cpu over wall %.2f s: daemon %.2f s (%.0f%%), generator %.2f s (%.0f%%)" wall d_cpu
    (100.0 *. d_cpu /. wall) g_cpu (100.0 *. g_cpu /. wall);
  say "daemon health: served %d, rejected %d" served rejected;
  let setups = Array.of_list (List.rev !setups) in
  say "setup: median %.4f s (n=%d): %s s" (median setups) (Array.length setups)
    (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.4f") setups)));
  show_quarters "issn daemon latency by open-loop quarter (ms)"
    (issn_quarters reqs l (Array.init n (fun i -> if l.out.done_ns.(i) = 0L then 0.0 else latency_ms l i)));
  ( n,
    n - ok,
    [ metric "setup_s" "s" (median setups);
      metric "throughput_per_s" "1/s" (throughput l);
      metric "p50_ms" "ms" (percentile 50.0 lat);
      metric "p90_ms" "ms" (percentile 90.0 lat);
      metric "ok_frac" "fraction" (ratio ok n);
      metric "slo_met_frac" "fraction" (ratio within n_open);
      metric "quality" "fraction" (ratio !right n);
      metric "peak_rss_mb" "MB" peak ] )

(* The traced run: the same load against an untraced daemon (the
   baseline for tracing overhead and transport time) and against a
   daemon with --stats (its counters), then the replay under spans. *)
let run_traced env =
  let w = env.o.workload and sz = env.sz and reqs = env.reqs in
  let d, _ = start_daemon env ~stats:false in
  let plain = run_load d sz reqs env.chunks in
  shutdown d;
  let d, _ = start_daemon env ~stats:true in
  let traced = run_load d sz reqs env.chunks in
  let stats = call d {|{"id":2000000003,"op":"stats"}|} in
  let _, rejected = health d in
  shutdown d;
  let c = counter_of_stats stats in
  (* a fresh registry handle: its first find per type loads and
     verifies the artifact, as the daemon's warm-up does *)
  let registry = open_registry env in
  let loads =
    Array.map
      (fun id ->
        let t0 = now_ns () in
        ignore (Model.Registry.find registry id);
        ms_between t0 (now_ns ()) *. 1000.0)
      env.types
  in
  Spans.reset ();
  Spans.on := true;
  let hits0, _ = Model.Registry.cache_stats registry in
  let r = run_replay w registry reqs in
  let hits1, _ = Model.Registry.cache_stats registry in
  Spans.on := false;
  if env.o.tamper then r.expected.(0) <- r.expected.(0) ^ " ";
  check_replies reqs plain r.expected;
  check_replies reqs traced r.expected;
  let deadline_hits = c "serve.deadline_hits" + c "serve.degraded" in
  gate (deadline_hits = 0) "%d deadline hit(s) in the daemon" deadline_hits;
  let tbl = Spans.self_by_name () in
  let n = Array.length reqs in
  let per_req name = Spans.self_ms tbl name *. 1000.0 /. float_of_int n in
  let count name = match Hashtbl.find_opt tbl name with Some (_, k) -> k | None -> 0 in
  let replay_open = Array.of_list (List.map (fun i -> r.request_us.(i)) (open_indices plain)) in
  let p50_plain = percentile 50.0 (open_latencies plain) in
  let p50_traced = percentile 50.0 (open_latencies traced) in
  let transport_us = (p50_plain *. 1000.0) -. percentile 50.0 replay_open in
  let values = Array.fold_left (fun a (q : req) -> a + List.length q.values) 0 reqs in
  let fast_n = count "tablecorpus.detect.fast" in
  let builds = count "tablecorpus.detect.build" in
  let per_call name k = if k = 0 then 0.0 else Spans.self_ms tbl name *. 1000.0 /. float_of_int k in
  let bytes =
    Array.fold_left (fun a (q : req) -> a + String.length q.frame) 0 reqs
    + Array.fold_left (fun a s -> a + String.length (Frame.encode s)) 0 r.expected
  in
  let groups = c "daemon.batches" in
  say "tracing overhead: daemon p50 with --stats %.3f ms vs without %.3f ms (%+.1f%%, n=%d)"
    p50_traced p50_plain (100.0 *. (p50_traced /. p50_plain -. 1.0))
    (Array.length replay_open);
  say "replay per open-loop request: p50 %.1f us (n=%d); daemon p50 %.1f us; transport %.1f us"
    (percentile 50.0 replay_open) (Array.length replay_open) (p50_plain *. 1000.0) transport_us;
  List.iter
    (fun name -> say "  %-28s %10.2f us/request" name (per_req name))
    [ "serve.frame"; "serve.protocol.decode"; "model.registry";
      "tablecorpus.detect.build"; "tablecorpus.detect.fast";
      "tablecorpus.detect.vm"; "serve.protocol.encode"; "serve.request" ];
  (* compute per request by type: which types dominate the tail *)
  let by_type =
    Array.map
      (fun ty ->
        let xs =
          List.filter_map
            (fun i ->
              if reqs.(i).ty = ty then
                Some (r.detect_us_per_value.(i) *. float_of_int (List.length reqs.(i).values))
              else None)
            (List.init n Fun.id)
        in
        (ty, median (Array.of_list xs)))
      env.types
  in
  Array.sort (fun (_, a) (_, b) -> compare b a) by_type;
  say "detect compute per request by type, median us: %s"
    (String.concat ", " (Array.to_list (Array.map (fun (t, us) -> Printf.sprintf "%s %.0f" t us) by_type)));
  let issn = issn_quarters reqs plain r.detect_us_per_value in
  show_quarters "issn replay cost by open-loop quarter (us/value)" issn;
  say "daemon counters: %d requests, %d groups, %d overloaded"
    (c "daemon.requests") groups (c "daemon.overloaded");
  ensure_out_dir ();
  Spans.write_jsonl (Filename.concat out_dir ("spans-" ^ workload_name w ^ ".jsonl"));
  ( 2 * n,
    (2 * n) - count_ok plain - count_ok traced,
    [ metric "serve.frame.busy_us" "us" (per_req "serve.frame");
      metric "serve.frame.bytes" "bytes" (float_of_int bytes /. float_of_int n);
      metric "serve.protocol.decode_us" "us" (per_req "serve.protocol.decode");
      metric "serve.protocol.encode_us" "us" (per_req "serve.protocol.encode");
      metric "model.registry.load_us" "us" (mean loads);
      metric "model.registry.find_us" "us" (per_req "model.registry");
      metric "model.registry.hit_frac" "fraction" (ratio (hits1 - hits0) n);
      metric "tablecorpus.detect.build_us" "us" (per_call "tablecorpus.detect.build" builds);
      metric "tablecorpus.detect.values" "count" (float_of_int values);
      metric "tablecorpus.detect.fastpath_frac" "fraction" (ratio fast_n values);
      metric "tablecorpus.detect.fast_us_per_value" "us" (per_call "tablecorpus.detect.fast" fast_n);
      metric "tablecorpus.detect.vm_us_per_value" "us"
        (per_call "tablecorpus.detect.vm" (values - fast_n));
      metric "tablecorpus.detect.deadline_hits" "count" (float_of_int deadline_hits);
      metric "tablecorpus.detect.issn_us_first_quarter" "us"
        (if issn = [||] then 0.0 else issn.(0));
      metric "tablecorpus.detect.issn_us_last_quarter" "us"
        (if issn = [||] then 0.0 else issn.(3));
      metric "serve.daemon.requests_per_group" "requests"
        (ratio (Array.length env.warm + n) groups);
      metric "serve.daemon.rejected" "count" (float_of_int rejected);
      metric "serve.transport_us" "us" transport_us;
      metric "loadgen.lag_p99_ms" "ms" (percentile 99.0 (open_lag plain)) ] )

let run (o : opts) =
  let sz = sizes o.workload in
  let types = served_types ~smoke:o.smoke in
  ensure_out_dir ();
  let scratch =
    Filename.concat (Sys.getcwd ())
      (Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())))
  in
  remove_tree scratch;
  Unix.mkdir scratch 0o755;
  Fun.protect ~finally:(fun () -> remove_tree scratch) @@ fun () ->
  let models = Filename.concat scratch "models" in
  let log = Filename.concat scratch "daemon.log" in
  compile_models ~autotype:o.autotype ~log models types;
  (* per-round chunk sizes: whole multiples of the served types *)
  let per_round share rate =
    let secs = float_of_int o.seconds *. if o.smoke then 0.05 else 1.0 in
    let k = Array.length types in
    k * max 1 (int_of_float (Float.round (secs *. share *. rate /. float_of_int (rounds * k))))
  in
  let open_per_round = per_round sz.open_share sz.open_rate in
  let closed_per_round = per_round sz.closed_share sz.closed_rate in
  let n_open = rounds * open_per_round and n_closed = rounds * closed_per_round in
  let reqs, chunks =
    build ~seed:o.seed o.workload types ~open_per_round ~closed_per_round
  in
  let env =
    { o; sz; types; models; log; reqs; chunks; warm = warmup_reqs ~seed:o.seed types }
  in
  say "%s: %d served types; %d rounds of open loop at %.0f/s (%d requests) and closed loop at depth %d (%d requests); seed %d"
    (workload_name o.workload) (Array.length types) rounds sz.open_rate n_open sz.depth
    n_closed o.seed;
  Gc.compact ();
  with_placement ~log (fun () -> if o.trace then run_traced env else run_timed env)
