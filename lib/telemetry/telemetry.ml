(** Telemetry recorder: request-scoped trace contexts, spans, counters,
    histograms with streaming quantile sketches, a lock-striped flight
    recorder, and Prometheus/JSON exposition.

    A single global recorder, disabled by default.  Every probe first
    checks [on] — one atomic load and a branch — so instrumentation left
    in hot paths costs effectively nothing when telemetry is off.
    Durations come from CLOCK_MONOTONIC (bechamel's stubs), not the wall
    clock.

    Domain safety: counters are atomics; histograms accumulate into
    per-domain shards (registered once per domain per histogram, then
    updated without synchronization) merged at snapshot time; the span
    stack is domain-local storage, with finished spans appended under a
    mutex; flight-recorder stripes take short mutexes.

    Lifecycle safety: [enable]/[reset] atomically bump a generation
    counter.  A span opened under an old generation that finishes after
    a [reset] is dropped instead of polluting the new run, so lifecycle
    operations are safe to call while spans are in flight on other
    domains.

    The flight recorder is independent of the [on] flag: it is always
    on (a bounded ring of recent structured events) unless explicitly
    disabled, so the serving path retains a post-mortem record even
    when stats collection is off. *)

let now_ns () : int64 = Monotonic_clock.now ()

(* ------------------------------------------------------------------ *)
(* JSON helpers (shared by span export, flight recorder, exposition)   *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 32 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Core state                                                          *)
(* ------------------------------------------------------------------ *)

let on = Atomic.make false
let t0 = ref 0L
let next_id = Atomic.make 0

(* [generation] is bumped by [reset].  Observations made under an older
   generation — spans still open across the reset, domain-local
   histogram-shard handles from the previous run — are dropped or
   abandoned rather than double-counted. *)
let generation = Atomic.make 0

let enabled () = Atomic.get on

(* ------------------------------------------------------------------ *)
(* Trace contexts                                                      *)
(* ------------------------------------------------------------------ *)

module Context = struct
  type t = { trace_id : int64; request_id : int }

  (* splitmix64: the same well-mixed 64-bit permutation the fault
     injector uses for deterministic draws; here it turns a sequence
     number into a trace id with no visible structure. *)
  let splitmix64 (x : int64) : int64 =
    let open Int64 in
    let z = add x 0x9E3779B97F4A7C15L in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  (* Seeded from the monotonic clock at module init so trace ids do not
     collide across processes; uniqueness within a process comes from
     the sequence counter. *)
  let seed = now_ns ()
  let seq = Atomic.make 1
  let next_request = Atomic.make 1

  let fresh_trace_id () =
    let rec go () =
      let n = Atomic.fetch_and_add seq 1 in
      let id =
        splitmix64
          (Int64.add seed (Int64.mul 0x2545F4914F6CDD1DL (Int64.of_int n)))
      in
      if id = 0L then go () else id
    in
    go ()

  let root ?request_id () =
    let request_id =
      match request_id with
      | Some r -> r
      | None -> Atomic.fetch_and_add next_request 1
    in
    { trace_id = fresh_trace_id (); request_id }

  let dls : t option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let current () = !(Domain.DLS.get dls)

  let trace_id () =
    match current () with Some c -> c.trace_id | None -> 0L

  let with_context ctx f =
    let cell = Domain.DLS.get dls in
    let saved = !cell in
    cell := Some ctx;
    Fun.protect ~finally:(fun () -> cell := saved) f

  let with_current copt f =
    match copt with None -> f () | Some ctx -> with_context ctx f

  let id_to_hex id = Printf.sprintf "%016Lx" id
  let trace_id_hex ctx = id_to_hex ctx.trace_id

  (* Inverse of [id_to_hex], for trace ids arriving over the wire: the
     serving daemon installs the client's id so daemon-side spans and
     flight events join the client's trace.  Strict: exactly 16 hex
     digits and never 0 (0 means "no context" everywhere else). *)
  let id_of_hex s =
    if String.length s <> 16 then None
    else if
      String.exists
        (fun c ->
          not
            ((c >= '0' && c <= '9')
            || (c >= 'a' && c <= 'f')
            || (c >= 'A' && c <= 'F')))
        s
    then None
    else
      match Int64.of_string_opt ("0x" ^ s) with
      | Some id when id <> 0L -> Some id
      | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

module Flight = struct
  type event = {
    f_ns : int64;  (** absolute monotonic time of the event *)
    f_trace_id : int64;  (** 0 when recorded outside any context *)
    f_request_id : int;  (** 0 when recorded outside any context *)
    f_kind : string;
    f_label : string;
    f_value : float;
  }

  (* Lock striping: recording domains hash onto independent ring
     segments, so concurrent producers contend only within a stripe.
     Each stripe is a fixed circular buffer — recording is two stores
     and a bump under a stripe-local mutex, never an allocation-driven
     pause or an unbounded queue. *)
  let n_stripes = 8
  let stripe_capacity = 512
  let capacity = n_stripes * stripe_capacity

  type stripe = {
    fl_lock : Mutex.t;
    fl_buf : event option array;
    mutable fl_next : int;
    mutable fl_overwritten : int;
  }

  let stripes =
    Array.init n_stripes (fun _ ->
        { fl_lock = Mutex.create (); fl_buf = Array.make stripe_capacity None;
          fl_next = 0; fl_overwritten = 0 })

  let record ?(value = 0.0) ~kind label =
    let trace_id, request_id =
      match Context.current () with
      | Some c -> (c.Context.trace_id, c.Context.request_id)
      | None -> (0L, 0)
    in
    let ev =
      { f_ns = now_ns (); f_trace_id = trace_id; f_request_id = request_id;
        f_kind = kind; f_label = label; f_value = value }
    in
    let s = stripes.((Domain.self () :> int) land (n_stripes - 1)) in
    Mutex.lock s.fl_lock;
    if s.fl_buf.(s.fl_next) <> None then
      s.fl_overwritten <- s.fl_overwritten + 1;
    s.fl_buf.(s.fl_next) <- Some ev;
    s.fl_next <- (s.fl_next + 1) mod stripe_capacity;
    Mutex.unlock s.fl_lock

  let clear () =
    Array.iter
      (fun s ->
        Mutex.lock s.fl_lock;
        Array.fill s.fl_buf 0 stripe_capacity None;
        s.fl_next <- 0;
        s.fl_overwritten <- 0;
        Mutex.unlock s.fl_lock)
      stripes

  let overwritten () =
    Array.fold_left
      (fun acc s ->
        Mutex.lock s.fl_lock;
        let n = s.fl_overwritten in
        Mutex.unlock s.fl_lock;
        acc + n)
      0 stripes

  let events () =
    let all = ref [] in
    Array.iter
      (fun s ->
        Mutex.lock s.fl_lock;
        Array.iter
          (function Some ev -> all := ev :: !all | None -> ())
          s.fl_buf;
        Mutex.unlock s.fl_lock)
      stripes;
    List.sort
      (fun a b ->
        match Int64.compare a.f_ns b.f_ns with
        | 0 -> compare (a.f_kind, a.f_label) (b.f_kind, b.f_label)
        | c -> c)
      !all

  (* Keys sorted so dumps are diff-stable. *)
  let event_to_json ev =
    Printf.sprintf
      "{\"kind\":\"%s\",\"label\":\"%s\",\"request_id\":%d,\"t_ms\":%.3f,\
       \"trace_id\":\"%s\",\"value\":%.6f}"
      (json_escape ev.f_kind) (json_escape ev.f_label) ev.f_request_id
      (Int64.to_float ev.f_ns /. 1e6)
      (Context.id_to_hex ev.f_trace_id)
      ev.f_value

  let dump path : (int, string) result =
    match open_out path with
    | exception Sys_error msg -> Error msg
    | oc ->
      let evs = events () in
      List.iter
        (fun ev ->
          output_string oc (event_to_json ev);
          output_char oc '\n')
        evs;
      close_out oc;
      Ok (List.length evs)

  (* Where [trigger] dumps to: explicit [set_dump_path] wins, else the
     AUTOTYPE_FLIGHT_DUMP environment variable, else triggers are
     no-ops (the ring still holds the events for [dump]-on-demand). *)
  let dump_target : string option Atomic.t =
    Atomic.make (Sys.getenv_opt "AUTOTYPE_FLIGHT_DUMP")

  let set_dump_path p = Atomic.set dump_target p
  let dump_path () = Atomic.get dump_target

  let trigger ~reason =
    match Atomic.get dump_target with
    | None -> ()
    | Some path ->
      record ~kind:"dump" reason;
      (match dump path with
       | Ok _ -> ()
       | Error msg ->
         Printf.eprintf "flight recorder: cannot dump to %s: %s\n%!" path msg)
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
  sp_parent : int option;
  sp_name : string;
  sp_trace_id : int64;  (** 0 when recorded outside any context *)
  sp_start_ns : int64;  (** monotonic ns since {!enable} *)
  sp_dur_ns : int64;
  sp_attrs : attr list;
}

type open_span = {
  o_id : int;
  o_parent : int option;
  o_name : string;
  o_gen : int;  (** generation at open; stale spans are dropped *)
  o_trace_id : int64;
  o_start : int64;  (** absolute monotonic time *)
  mutable o_attrs : attr list;  (** reversed *)
}

(* Per-domain span stack: spans nest along each domain's own dynamic
   call stack. *)
let stack_key : open_span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let finished_lock = Mutex.create ()
let finished : span list ref = ref []  (* reversed completion order *)

let with_span ?(attrs = []) name f =
  if not (Atomic.get on) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match !stack with [] -> None | o :: _ -> Some o.o_id in
    let o =
      { o_id = id; o_parent = parent; o_name = name;
        o_gen = Atomic.get generation; o_trace_id = Context.trace_id ();
        o_start = now_ns (); o_attrs = List.rev attrs }
    in
    stack := o :: !stack;
    let finish () =
      let dur = Int64.sub (now_ns ()) o.o_start in
      (* Pop this frame; tolerate a stack perturbed by exceptions. *)
      stack := List.filter (fun x -> x.o_id <> id) !stack;
      (* A reset raced this span: its start time belongs to the old run,
         so recording it now would misattribute it.  Drop it. *)
      if Atomic.get generation = o.o_gen then begin
        let sp =
          { sp_id = id; sp_parent = o.o_parent; sp_name = name;
            sp_trace_id = o.o_trace_id;
            sp_start_ns = Int64.sub o.o_start !t0; sp_dur_ns = dur;
            sp_attrs = List.rev o.o_attrs }
        in
        Mutex.lock finished_lock;
        finished := sp :: !finished;
        Mutex.unlock finished_lock;
        Flight.record ~kind:"span" ~value:(Int64.to_float dur /. 1e6) name
      end
    in
    Fun.protect ~finally:finish f
  end

let add_attr key value =
  if Atomic.get on then
    match !(Domain.DLS.get stack_key) with
    | [] -> ()
    | o :: _ -> o.o_attrs <- (key, value) :: o.o_attrs

let all_finished () =
  Mutex.lock finished_lock;
  let all = !finished in
  Mutex.unlock finished_lock;
  all

let spans () =
  List.sort
    (fun a b ->
      match Int64.compare a.sp_start_ns b.sp_start_ns with
      | 0 -> compare a.sp_id b.sp_id
      | c -> c)
    (all_finished ())

let spans_named name =
  List.filter (fun s -> s.sp_name = name) (all_finished ())

let total_ns name =
  List.fold_left
    (fun acc s -> Int64.add acc s.sp_dur_ns)
    0L (spans_named name)

(* ------------------------------------------------------------------ *)
(* Streaming quantile sketch                                           *)
(* ------------------------------------------------------------------ *)

(* A DDSketch-style log-bucketed quantile estimator: bucket boundaries
   grow geometrically by [sketch_gamma], so any quantile is answered
   with relative error at most sqrt(gamma) - 1 (~3.9% for gamma=1.08),
   and merging shards is exact — it is just adding bucket counts.
   Chosen over CKMS/P2 because per-domain shards must merge without
   coordination; marker-based estimators do not compose. *)
let sketch_gamma = 1.08
let sketch_min_value = 1e-6
let sketch_size = 512
let sketch_log_gamma = log sketch_gamma

let sketch_bucket v =
  if Float.is_nan v || v <= sketch_min_value then 0
  else begin
    let b =
      1 + int_of_float (Float.floor (log (v /. sketch_min_value)
                                     /. sketch_log_gamma))
    in
    if b >= sketch_size then sketch_size - 1 else b
  end

(* Geometric midpoint of bucket [i]'s boundaries — the value whose
   relative distance to anything in the bucket is bounded. *)
let sketch_value i =
  if i <= 0 then sketch_min_value
  else sketch_min_value *. exp ((float_of_int i -. 0.5) *. sketch_log_gamma)

let sketch_quantile counts total q =
  if total = 0 then 0.0
  else begin
    let rank =
      max 1 (min total (int_of_float (Float.ceil (q *. float_of_int total))))
    in
    let rec go i acc =
      if i >= sketch_size then sketch_value (sketch_size - 1)
      else
        let acc = acc + counts.(i) in
        if acc >= rank then sketch_value i else go (i + 1) acc
    in
    go 0 0
  end

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type counter = { c_name : string; c_value : int Atomic.t }

(* One domain's private accumulator for one histogram.  Only the owning
   domain writes it; mutable word-sized fields cannot tear, so the
   merging snapshot reads are safe (and exact once the domain has
   quiesced). *)
type hist_shard = {
  mutable s_count : int;
  mutable s_sum : float;
  mutable s_min : float;
  mutable s_max : float;
  s_sketch : int array;  (** log-bucket counts, [sketch_size] wide *)
}

type histogram = {
  g_id : int;
  g_name : string;
  g_lock : Mutex.t;  (** guards [g_shards] *)
  mutable g_shards : hist_shard list;
}

let registry_lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16
let next_hist_id = ref 0

(* Per-domain shard handles: histogram id -> (generation, shard). *)
let shards_key : (int, int * hist_shard) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let reset () =
  (* The generation bump is the atomic lifecycle swap: from this point
     every still-open span and every domain-local shard handle is
     stale and will be dropped/abandoned at its next touch. *)
  Atomic.incr generation;
  Atomic.set next_id 0;
  Domain.DLS.get stack_key := [];
  Mutex.lock finished_lock;
  finished := [];
  Mutex.unlock finished_lock;
  t0 := now_ns ();
  Mutex.lock registry_lock;
  Hashtbl.iter (fun _ c -> Atomic.set c.c_value 0) counters;
  Hashtbl.iter
    (fun _ g ->
      Mutex.lock g.g_lock;
      g.g_shards <- [];
      Mutex.unlock g.g_lock)
    histograms;
  Mutex.unlock registry_lock;
  Flight.clear ()

let enable () =
  reset ();
  Atomic.set on true

let disable () = Atomic.set on false

let counter name =
  Mutex.lock registry_lock;
  let c =
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
      let c = { c_name = name; c_value = Atomic.make 0 } in
      Hashtbl.add counters name c;
      c
  in
  Mutex.unlock registry_lock;
  c

let histogram name =
  Mutex.lock registry_lock;
  let g =
    match Hashtbl.find_opt histograms name with
    | Some g -> g
    | None ->
      let g =
        { g_id = !next_hist_id; g_name = name; g_lock = Mutex.create ();
          g_shards = [] }
      in
      next_hist_id := !next_hist_id + 1;
      Hashtbl.add histograms name g;
      g
  in
  Mutex.unlock registry_lock;
  g

let incr ?(by = 1) c =
  if Atomic.get on then ignore (Atomic.fetch_and_add c.c_value by)

let observe g v =
  if Atomic.get on then begin
    let tbl = Domain.DLS.get shards_key in
    let gen = Atomic.get generation in
    let shard =
      match Hashtbl.find_opt tbl g.g_id with
      | Some (gen', s) when gen' = gen -> s
      | _ ->
        let s =
          { s_count = 0; s_sum = 0.0; s_min = 0.0; s_max = 0.0;
            s_sketch = Array.make sketch_size 0 }
        in
        Mutex.lock g.g_lock;
        g.g_shards <- s :: g.g_shards;
        Mutex.unlock g.g_lock;
        Hashtbl.replace tbl g.g_id (gen, s);
        s
    in
    let new_max = shard.s_count = 0 || v > shard.s_max in
    if shard.s_count = 0 then begin
      shard.s_min <- v;
      shard.s_max <- v
    end
    else begin
      if v < shard.s_min then shard.s_min <- v;
      if v > shard.s_max then shard.s_max <- v
    end;
    shard.s_count <- shard.s_count + 1;
    shard.s_sum <- shard.s_sum +. v;
    let b = sketch_bucket v in
    shard.s_sketch.(b) <- shard.s_sketch.(b) + 1;
    (* Exemplar link: the slowest observation this shard has seen under
       a request context is worth a flight event tying the latency to
       the trace that produced it. *)
    if new_max && Context.current () <> None then
      Flight.record ~kind:"exemplar" ~value:v g.g_name
  end

type hist_snapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_mean : float;
  h_p50 : float;  (** streaming-sketch estimates, merged across shards *)
  h_p95 : float;
  h_p99 : float;
}

let merge_shards g : hist_snapshot =
  Mutex.lock g.g_lock;
  let shards = List.rev g.g_shards in  (* registration order *)
  Mutex.unlock g.g_lock;
  let merged = Array.make sketch_size 0 in
  let count, sum, mn, mx =
    List.fold_left
      (fun (count, sum, mn, mx) s ->
        if s.s_count = 0 then (count, sum, mn, mx)
        else begin
          Array.iteri
            (fun i n -> if n > 0 then merged.(i) <- merged.(i) + n)
            s.s_sketch;
          ( count + s.s_count,
            sum +. s.s_sum,
            (if count = 0 then s.s_min else Float.min mn s.s_min),
            if count = 0 then s.s_max else Float.max mx s.s_max )
        end)
      (0, 0.0, 0.0, 0.0) shards
  in
  { h_count = count; h_sum = sum; h_min = mn; h_max = mx;
    h_mean = (if count = 0 then 0.0 else sum /. float_of_int count);
    h_p50 = sketch_quantile merged count 0.50;
    h_p95 = sketch_quantile merged count 0.95;
    h_p99 = sketch_quantile merged count 0.99 }

type snapshot = {
  counters : (string * int) list;
  histograms : (string * hist_snapshot) list;
}

let snapshot () =
  Mutex.lock registry_lock;
  let counter_list = Hashtbl.fold (fun name c acc -> (name, c) :: acc) counters [] in
  let hist_list = Hashtbl.fold (fun name g acc -> (name, g) :: acc) histograms [] in
  Mutex.unlock registry_lock;
  let by_name (a, _) (b, _) = String.compare a b in
  let cs =
    List.map (fun (name, c) -> (name, Atomic.get c.c_value)) counter_list
    |> List.sort by_name
  in
  let hs =
    List.map (fun (name, g) -> (name, merge_shards g)) hist_list
    |> List.sort by_name
  in
  { counters = cs; histograms = hs }

let find_counter snap name =
  Option.value ~default:0 (List.assoc_opt name snap.counters)

(* ------------------------------------------------------------------ *)
(* Rendering and export                                                *)
(* ------------------------------------------------------------------ *)

let format_ns ns =
  let f = Int64.to_float ns in
  if f < 1e3 then Printf.sprintf "%.0fns" f
  else if f < 1e6 then Printf.sprintf "%.1fus" (f /. 1e3)
  else if f < 1e9 then Printf.sprintf "%.1fms" (f /. 1e6)
  else Printf.sprintf "%.2fs" (f /. 1e9)

let attr_value_to_json = function
  | S s -> Printf.sprintf "\"%s\"" (json_escape s)
  | I i -> string_of_int i
  | F f -> Printf.sprintf "%g" f
  | B b -> if b then "true" else "false"

let attrs_to_json attrs =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":%s" (json_escape k) (attr_value_to_json v))
         attrs)
  ^ "}"

let ms ns = Int64.to_float ns /. 1e6

let span_to_json s =
  Printf.sprintf
    "{\"name\":\"%s\",\"id\":%d,\"parent\":%s,\"trace_id\":\"%s\",\
     \"start_ms\":%.3f,\"dur_ms\":%.3f,\"attrs\":%s}"
    (json_escape s.sp_name) s.sp_id
    (match s.sp_parent with None -> "null" | Some p -> string_of_int p)
    (Context.id_to_hex s.sp_trace_id)
    (ms s.sp_start_ns) (ms s.sp_dur_ns)
    (attrs_to_json s.sp_attrs)

let write_jsonl path =
  match open_out path with
  | exception Sys_error msg -> Error msg
  | oc ->
    List.iter
      (fun s ->
        output_string oc (span_to_json s);
        output_char oc '\n')
      (spans ());
    close_out oc;
    Ok ()

let render_metrics snap =
  let buf = Buffer.create 1024 in
  if snap.counters <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "%-42s %14s\n" "counter" "value");
    List.iter
      (fun (name, v) ->
        Buffer.add_string buf (Printf.sprintf "%-42s %14d\n" name v))
      snap.counters
  end;
  let active = List.filter (fun (_, h) -> h.h_count > 0) snap.histograms in
  if active <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "%-42s %8s %10s %10s %10s %10s %10s\n" "histogram"
         "count" "mean" "p50" "p95" "p99" "max");
    List.iter
      (fun (name, h) ->
        Buffer.add_string buf
          (Printf.sprintf "%-42s %8d %10.1f %10.1f %10.1f %10.1f %10.1f\n"
             name h.h_count h.h_mean h.h_p50 h.h_p95 h.h_p99 h.h_max))
      active
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Exposition                                                          *)
(* ------------------------------------------------------------------ *)

module Expose = struct
  (* Internal dotted names become Prometheus families under a single
     [autotype_] namespace: dots and anything outside [a-zA-Z0-9_]
     are replaced with underscores.  Counters gain the conventional
     [_total] suffix, histograms expose as summaries (streaming-sketch
     quantiles + _sum/_count). *)
  let sanitize name =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
        | _ -> '_')
      name

  let float_str v =
    if Float.is_nan v then "NaN"
    else if v = Float.infinity then "+Inf"
    else if v = Float.neg_infinity then "-Inf"
    else Printf.sprintf "%.6f" v

  let render_prometheus (snap : snapshot) : string =
    let buf = Buffer.create 4096 in
    let family ~name ~help ~typ samples =
      Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name typ);
      List.iter (fun s -> Buffer.add_string buf (s ^ "\n")) samples
    in
    let families =
      List.map
        (fun (name, v) ->
          let fam = "autotype_" ^ sanitize name ^ "_total" in
          ( fam,
            fun () ->
              family ~name:fam
                ~help:(Printf.sprintf "AutoType counter %s." name)
                ~typ:"counter"
                [ Printf.sprintf "%s %d" fam v ] ))
        snap.counters
      @ List.filter_map
          (fun (name, h) ->
            if h.h_count = 0 then None
            else
              let fam = "autotype_" ^ sanitize name in
              Some
                ( fam,
                  fun () ->
                    family ~name:fam
                      ~help:
                        (Printf.sprintf
                           "AutoType histogram %s (streaming quantile \
                            sketch)." name)
                      ~typ:"summary"
                      [ Printf.sprintf "%s{quantile=\"0.5\"} %s" fam
                          (float_str h.h_p50);
                        Printf.sprintf "%s{quantile=\"0.95\"} %s" fam
                          (float_str h.h_p95);
                        Printf.sprintf "%s{quantile=\"0.99\"} %s" fam
                          (float_str h.h_p99);
                        Printf.sprintf "%s_sum %s" fam (float_str h.h_sum);
                        Printf.sprintf "%s_count %d" fam h.h_count ] ))
          snap.histograms
    in
    List.iter
      (fun (_, emit) -> emit ())
      (List.sort (fun (a, _) (b, _) -> String.compare a b) families);
    Buffer.contents buf

  (* Exposition lint: the checks a Prometheus scraper would trip over.
     Families must declare HELP and TYPE before their first sample,
     exactly once; metric names must be well-formed; samples of a
     family must be contiguous; sample values must parse. *)
  let metric_name_ok name =
    String.length name > 0
    && (match name.[0] with
        | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
        | _ -> false)
    && String.for_all
         (fun c ->
           match c with
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
           | _ -> false)
         name

  let lint (text : string) : (int, string list) result =
    let errors = ref [] in
    let err lineno fmt =
      Printf.ksprintf
        (fun msg -> errors := Printf.sprintf "line %d: %s" lineno msg :: !errors)
        fmt
    in
    let helps : (string, unit) Hashtbl.t = Hashtbl.create 32 in
    let types : (string, string) Hashtbl.t = Hashtbl.create 32 in
    let sampled : (string, unit) Hashtbl.t = Hashtbl.create 32 in
    let last_family = ref "" in
    let strip_suffix name =
      let try_strip sfx =
        let n = String.length name and l = String.length sfx in
        if n > l && String.sub name (n - l) l = sfx then
          Some (String.sub name 0 (n - l))
        else None
      in
      match try_strip "_sum" with
      | Some b -> b
      | None ->
        (match try_strip "_count" with
         | Some b -> b
         | None ->
           (match try_strip "_bucket" with Some b -> b | None -> name))
    in
    let lines = String.split_on_char '\n' text in
    List.iteri
      (fun i line ->
        let lineno = i + 1 in
        let line = String.trim line in
        if line = "" then ()
        else if String.length line >= 7 && String.sub line 0 7 = "# HELP " then begin
          match String.split_on_char ' ' line with
          | _ :: _ :: name :: _rest when name <> "" ->
            if not (metric_name_ok name) then
              err lineno "HELP for malformed metric name %S" name;
            if Hashtbl.mem helps name then
              err lineno "duplicate HELP for family %s" name
            else Hashtbl.add helps name ()
          | _ -> err lineno "malformed HELP line %S" line
        end
        else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
          match String.split_on_char ' ' line with
          | [ _; _; name; typ ] ->
            if not (metric_name_ok name) then
              err lineno "TYPE for malformed metric name %S" name;
            if
              not
                (List.mem typ
                   [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ])
            then err lineno "unknown metric type %S for %s" typ name;
            if Hashtbl.mem types name then
              err lineno "duplicate TYPE for family %s (duplicate family)"
                name
            else Hashtbl.add types name typ;
            if Hashtbl.mem sampled name then
              err lineno "TYPE for %s appears after its samples" name
          | _ -> err lineno "malformed TYPE line %S" line
        end
        else if line.[0] = '#' then ()  (* plain comment *)
        else begin
          (* A sample: name[{labels}] value *)
          let name_end =
            match (String.index_opt line '{', String.index_opt line ' ') with
            | Some b, Some sp -> min b sp
            | Some b, None -> b
            | None, Some sp -> sp
            | None, None -> String.length line
          in
          let name = String.sub line 0 name_end in
          if not (metric_name_ok name) then
            err lineno "malformed metric name %S" name
          else begin
            let family =
              if Hashtbl.mem types name then name else strip_suffix name
            in
            if not (Hashtbl.mem types family) then
              err lineno "sample %s has no TYPE declaration" name;
            if not (Hashtbl.mem helps family) then
              err lineno "sample %s has no HELP declaration" name;
            if !last_family <> family && Hashtbl.mem sampled family then
              err lineno "samples for family %s are not contiguous" family;
            Hashtbl.replace sampled family ();
            last_family := family;
            (* Labels, when present, must close before the value. *)
            let rest =
              match String.index_opt line '{' with
              | Some b ->
                (match String.index_from_opt line b '}' with
                 | None ->
                   err lineno "unclosed label braces on %s" name;
                   ""
                 | Some e ->
                   String.sub line (e + 1) (String.length line - e - 1))
              | None ->
                String.sub line name_end (String.length line - name_end)
            in
            let value = String.trim rest in
            let value_token =
              match String.index_opt value ' ' with
              | Some sp -> String.sub value 0 sp  (* optional timestamp *)
              | None -> value
            in
            if value_token = "" then err lineno "sample %s has no value" name
            else if
              (match float_of_string_opt value_token with
               | Some _ -> false
               | None ->
                 not
                   (List.mem value_token [ "+Inf"; "-Inf"; "NaN" ]))
            then err lineno "sample %s has unparsable value %S" name value_token
          end
        end)
      lines;
    (* Declared families with no samples are legal in Prometheus but in
       our exposition they mean a rendering bug. *)
    Hashtbl.iter
      (fun name _ ->
        if not (Hashtbl.mem sampled name) then
          errors := Printf.sprintf "family %s declares TYPE but has no samples" name :: !errors)
      types;
    if !errors = [] then Ok (Hashtbl.length types)
    else Error (List.rev !errors)
end
