(** Model registry: directory of artifacts + index + in-memory LRU
    (see registry.mli). *)

type entry = {
  synthesis : Autotype_core.Synthesis.t;
  artifact : Artifact.t;
  tree : bool Absint.Domain.prepared_tree option;
}

let entry_of_artifact (artifact : Artifact.t) =
  {
    synthesis = Artifact.to_synthesis artifact;
    artifact;
    tree = Option.bind artifact.Artifact.summary Absint.Domain.prepare;
  }

type cached = {
  entry : entry;
  mutable last_used : int;  (** LRU clock tick of the latest [find] *)
}

type t = {
  dir : string;
  capacity : int;
  lock : Mutex.t;
  mutable index : (string * string) list;  (** key -> file name (no dir) *)
  cache : (string, cached) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let default_capacity = 32

let m_hits = Telemetry.counter "serve.cache_hits"
let m_misses = Telemetry.counter "serve.cache_misses"
let m_evictions = Telemetry.counter "serve.cache_evictions"
let m_retry_attempts = Telemetry.counter "retry.attempts"
let m_retry_recovered = Telemetry.counter "retry.recovered"
let m_retry_gave_up = Telemetry.counter "retry.gave_up"

let index_file = "index.json"

let dir t = t.dir

(* ------------------------------------------------------------------ *)
(* Index persistence                                                   *)
(* ------------------------------------------------------------------ *)

let index_path dir = Filename.concat dir index_file

let write_index dir (index : (string * string) list) : (unit, string) result =
  let json =
    Jsonx.Obj
      [ ("version", Jsonx.Int Artifact.format_version);
        ("models",
         Jsonx.Obj
           (List.map (fun (k, f) -> (k, Jsonx.Str f))
              (List.sort compare index))) ]
  in
  let path = index_path dir in
  let tmp = path ^ ".tmp" in
  match
    let oc = open_out_bin tmp in
    output_string oc (Jsonx.to_string json);
    output_char oc '\n';
    close_out oc;
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

let read_index dir : ((string * string) list option, string) result =
  let path = index_path dir in
  if not (Sys.file_exists path) then Ok None
  else
    match
      let ic = open_in_bin path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      contents
    with
    | exception Sys_error msg -> Error msg
    | contents ->
      (match Jsonx.parse contents with
       | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
       | Ok j ->
         (match
            List.map
              (fun (k, v) -> (k, Jsonx.to_str v))
              (match Jsonx.member "models" j with
               | Jsonx.Obj fields -> fields
               | _ -> raise (Jsonx.Decode_error "models must be an object"))
          with
          | index -> Ok (Some index)
          | exception Jsonx.Decode_error msg ->
            Error (Printf.sprintf "%s: %s" path msg)))

(* ------------------------------------------------------------------ *)
(* Opening                                                             *)
(* ------------------------------------------------------------------ *)

let is_model_file name =
  Filename.check_suffix name Artifact.extension

(* No index: derive one by loading every artifact in the directory.
   A corrupt artifact fails the open with its precise load error —
   better a loud refusal than silently serving a partial registry. *)
let scan_dir dir : ((string * string) list, string) result =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error msg
  | names ->
    let files =
      Array.to_list names |> List.filter is_model_file |> List.sort compare
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | name :: rest ->
        (match Artifact.load (Filename.concat dir name) with
         | Ok art -> go ((Artifact.key art, name) :: acc) rest
         | Error e ->
           Error
             (Printf.sprintf "%s: %s" name (Artifact.load_error_to_string e)))
    in
    go [] files

let make ?(capacity = default_capacity) dir index =
  {
    dir;
    capacity = max 1 capacity;
    lock = Mutex.create ();
    index;
    cache = Hashtbl.create 16;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let open_dir ?capacity dir : (t, string) result =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "model registry %s: no such directory" dir)
  else
    match read_index dir with
    | Error msg -> Error msg
    | Ok (Some index) -> Ok (make ?capacity dir index)
    | Ok None ->
      (match scan_dir dir with
       | Error msg -> Error (Printf.sprintf "model registry %s: %s" dir msg)
       | Ok index -> Ok (make ?capacity dir index))

let create_dir ?capacity dir : (t, string) result =
  match
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
    else if not (Sys.is_directory dir) then
      failwith (dir ^ " exists and is not a directory")
  with
  | exception Sys_error msg -> Error msg
  | exception Failure msg -> Error msg
  | () ->
    if Sys.file_exists (index_path dir) then open_dir ?capacity dir
    else
      (match write_index dir [] with
       | Error msg -> Error msg
       | Ok () -> Ok (make ?capacity dir []))

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let keys t =
  with_lock t (fun () -> List.sort compare (List.map fst t.index))

let mem t key = with_lock t (fun () -> List.mem_assoc key t.index)

let path_of t key =
  with_lock t (fun () ->
      Option.map (Filename.concat t.dir) (List.assoc_opt key t.index))

(* ------------------------------------------------------------------ *)
(* Save                                                                *)
(* ------------------------------------------------------------------ *)

let save t (art : Artifact.t) : (string, string) result =
  let key = Artifact.key art in
  let name = key ^ Artifact.extension in
  let path = Filename.concat t.dir name in
  match Artifact.save art path with
  | Error msg -> Error msg
  | Ok () ->
    with_lock t (fun () ->
        t.index <- (key, name) :: List.remove_assoc key t.index;
        Hashtbl.remove t.cache key;
        match write_index t.dir t.index with
        | Ok () -> Ok path
        | Error msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* Serve: LRU-cached find                                              *)
(* ------------------------------------------------------------------ *)

let evict_lru t =
  if Hashtbl.length t.cache >= t.capacity then begin
    let victim =
      Hashtbl.fold
        (fun key c acc ->
          match acc with
          | Some (_, best) when best.last_used <= c.last_used -> acc
          | _ -> Some (key, c))
        t.cache None
    in
    match victim with
    | Some (key, _) ->
      Hashtbl.remove t.cache key;
      Telemetry.incr m_evictions;
      Telemetry.Flight.record ~kind:"eviction" key
    | None -> ()
  end

(* Transient load failures — an unreadable file or a checksum mismatch
   can both be a torn read racing a writer's rename — are retried a
   bounded number of times with a short backoff.  Structural errors
   (wrong version, not a model, malformed payload) are permanent: the
   bytes on disk are settled and wrong, so retrying only burns the
   caller's budget. *)
let transient_load_error : Artifact.load_error -> bool = function
  | Artifact.File_error _ | Artifact.Checksum_mismatch _ -> true
  | Artifact.Not_a_model _ | Artifact.Version_unsupported _
  | Artifact.Malformed _ -> false

let retry_backoff_s = [| 0.001; 0.005 |]

let load_with_retry path : (Artifact.t, Artifact.load_error) result =
  let max_retries = Array.length retry_backoff_s in
  let rec attempt n =
    match Artifact.load path with
    | Ok art ->
      if n > 0 then Telemetry.incr m_retry_recovered;
      Ok art
    | Error e when transient_load_error e && n < max_retries ->
      Telemetry.incr m_retry_attempts;
      Telemetry.Flight.record ~kind:"retry" ~value:(float_of_int (n + 1))
        path;
      Unix.sleepf retry_backoff_s.(n);
      attempt (n + 1)
    | Error e ->
      if n > 0 then Telemetry.incr m_retry_gave_up;
      Error e
  in
  attempt 0

(* The lock is held across the disk load on a miss: concurrent domains
   asking for the same model wait rather than re-reading and
   re-verifying the same file, so each artifact is loaded at most once
   while resident.  Retry backoff (a handful of ms worst case) sleeps
   under the lock for the same reason — a torn file serves nobody. *)
let find t key : (entry, Artifact.load_error) result =
  with_lock t (fun () ->
      t.clock <- t.clock + 1;
      match Hashtbl.find_opt t.cache key with
      | Some cached ->
        cached.last_used <- t.clock;
        t.hits <- t.hits + 1;
        Telemetry.incr m_hits;
        Ok cached.entry
      | None ->
        t.misses <- t.misses + 1;
        Telemetry.incr m_misses;
        (match List.assoc_opt key t.index with
         | None ->
           Error
             (Artifact.File_error
                (Printf.sprintf "no model for %S in registry %s (available: %s)"
                   key t.dir
                   (match List.map fst t.index with
                    | [] -> "none"
                    | ks -> String.concat ", " (List.sort compare ks))))
         | Some name ->
           (match load_with_retry (Filename.concat t.dir name) with
            | Error e -> Error e
            | Ok artifact ->
              let entry = entry_of_artifact artifact in
              evict_lru t;
              Hashtbl.add t.cache key { entry; last_used = t.clock };
              Ok entry)))

let cache_stats t = with_lock t (fun () -> (t.hits, t.misses))
