(* In-memory spans recorded by the benchmark around its own calls into
   each layer's public functions.  Spans stay in memory while the run
   is measured, are written out as JSON Lines at exit, and are reduced
   to self time per layer: a span's duration minus the part of it that
   its child spans cover. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  key : string;  (** the type id or request id the span belongs to *)
  start_ns : int64;
  mutable stop_ns : int64;
  mutable child_ns : int64;  (** time covered by direct children *)
}

let recorded : span list ref = ref []
let count = ref 0
let stack : span list ref = ref []
let on = ref false
let duration_ns s = Int64.sub s.stop_ns s.start_ns

let reset () =
  recorded := [];
  count := 0;
  stack := []

(* Time [f] as a span named [name].  Off, it is a plain call. *)
let with_span ?(key = "") name f =
  if not !on then f ()
  else begin
    let parent, key =
      match !stack with
      | p :: _ -> (p.id, if key = "" then p.key else key)
      | [] -> (-1, key)
    in
    let s =
      { id = !count; name; parent; key; start_ns = Common.now_ns ();
        stop_ns = 0L; child_ns = 0L }
    in
    incr count;
    stack := s :: !stack;
    let finish () =
      s.stop_ns <- Common.now_ns ();
      stack := List.tl !stack;
      (match !stack with
       | p :: _ -> p.child_ns <- Int64.add p.child_ns (duration_ns s)
       | [] -> ());
      recorded := s :: !recorded
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let self_ns s = Int64.sub (duration_ns s) s.child_ns

(* Total self time (ns) and span count per name. *)
let self_by_name () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let ns, n =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0L, 0)
      in
      Hashtbl.replace tbl s.name (Int64.add ns (self_ns s), n + 1))
    !recorded;
  tbl

let self_ms tbl name =
  match Hashtbl.find_opt tbl name with
  | Some (ns, _) -> Int64.to_float ns /. 1e6
  | None -> 0.0

let spans_named name = List.filter (fun s -> s.name = name) !recorded

let write_jsonl path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  List.iter
    (fun s ->
      let open Model.Jsonx in
      output_string oc
        (to_string
           (Obj
              [ ("id", Int s.id); ("name", Str s.name);
                ("parent", if s.parent < 0 then Null else Int s.parent);
                ("key", Str s.key); ("start_ns", Int (Int64.to_int s.start_ns));
                ("end_ns", Int (Int64.to_int s.stop_ns));
                ("self_ns", Int (Int64.to_int (self_ns s))) ]));
      output_char oc '\n')
    (List.rev !recorded)
