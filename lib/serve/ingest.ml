(** Value ingestion shared by the CLI and the serving daemon, and the
    snapshot JSON codec (see ingest.mli for the contracts). *)

let m_empty_values = Telemetry.counter "detect.empty_values"

(* Strip one trailing '\r' so CRLF input reads like LF input; interior
   characters are untouched — a column value is served verbatim. *)
let chomp_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let fold_lines path (f : string -> string option) :
    (string list, string) result =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let rec go acc =
      match input_line ic with
      | line -> go (match f line with Some v -> v :: acc | None -> acc)
      | exception End_of_file -> Ok (List.rev acc)
      | exception Sys_error msg -> Error msg
    in
    go []

let read_column path =
  fold_lines path (fun line ->
      let v = chomp_cr line in
      if v = "" then Telemetry.incr m_empty_values;
      Some v)

let read_examples path =
  fold_lines path (fun line ->
      let v = String.trim line in
      if v = "" then None else Some v)

let read_channel ic ~len =
  if len < 0 then Error (Printf.sprintf "negative length %d" len)
  else
    match really_input_string ic len with
    | s -> Ok s
    | exception End_of_file ->
      Error
        (Printf.sprintf
           "truncated read: wanted %d bytes (file shrank mid-read?)" len)

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    (match read_channel ic ~len:(in_channel_length ic) with
     | (Ok _ | Error _) as r -> r
     | exception Sys_error msg -> Error msg)

module J = Model.Jsonx

(* JSON has no non-finite numbers: those are written as the strings
   "+Inf", "-Inf" and "NaN", the Prometheus spellings, and read back
   below.  Every other float prints as %.17g, which reads back exactly. *)
let json_float v =
  if Float.is_nan v then J.Str "NaN"
  else if v = Float.infinity then J.Str "+Inf"
  else if v = Float.neg_infinity then J.Str "-Inf"
  else J.Float v

let snapshot_to_json (snap : Telemetry.snapshot) : J.t =
  let histogram (h : Telemetry.hist_snapshot) =
    J.Obj
      [ ("count", J.Int h.h_count); ("max", json_float h.h_max);
        ("mean", json_float h.h_mean); ("min", json_float h.h_min);
        ("p50", json_float h.h_p50); ("p95", json_float h.h_p95);
        ("p99", json_float h.h_p99); ("sum", json_float h.h_sum) ]
  in
  J.Obj
    [ ("counters",
       J.Obj (List.map (fun (k, v) -> (k, J.Int v)) snap.counters));
      ("histograms",
       J.Obj (List.map (fun (k, h) -> (k, histogram h)) snap.histograms)) ]

let snapshot_of_string text : (Telemetry.snapshot, string) result =
  let section name decode j =
    match J.member name j with
    | J.Obj kvs -> List.map (fun (k, v) -> (k, decode v)) kvs
    | _ -> raise (J.Decode_error (Printf.sprintf "%S is not an object" name))
  in
  let f name v =
    match J.member name v with
    | J.Str "+Inf" -> Float.infinity
    | J.Str "-Inf" -> Float.neg_infinity
    | J.Str "NaN" -> Float.nan
    | x -> J.to_float x
  in
  let histogram v =
    {
      Telemetry.h_count = J.to_int (J.member "count" v);
      h_sum = f "sum" v;
      h_min = f "min" v;
      h_max = f "max" v;
      h_mean = f "mean" v;
      h_p50 = f "p50" v;
      h_p95 = f "p95" v;
      h_p99 = f "p99" v;
    }
  in
  match J.parse text with
  | Error msg -> Error ("malformed JSON: " ^ msg)
  | Ok j ->
    (try
       let counters = section "counters" J.to_int j in
       Ok { Telemetry.counters; histograms = section "histograms" histogram j }
     with J.Decode_error msg -> Error ("not a metrics snapshot: " ^ msg))
