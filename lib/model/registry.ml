(** Model registry: a directory of artifacts + in-memory LRU
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

let dir t = t.dir

(* ------------------------------------------------------------------ *)
(* Keys: the directory's model file names                              *)
(* ------------------------------------------------------------------ *)

(* A key names a file directly inside the directory that a listing
   shows: never empty, no leading dot, no path separator.  [find] gets
   keys straight from requests, so this is what keeps it inside. *)
let valid_key key =
  key <> "" && key.[0] <> '.' && not (String.contains key '/')

let file_of_key t key = Filename.concat t.dir (key ^ Artifact.extension)

let list_keys t : (string list, string) result =
  match Sys.readdir t.dir with
  | exception Sys_error msg -> Error msg
  | names ->
    Ok
      (Array.to_list names
      |> List.filter_map (fun name ->
             if Filename.check_suffix name Artifact.extension then
               let key = Filename.chop_suffix name Artifact.extension in
               if valid_key key then Some key else None
             else None)
      |> List.sort compare)

(* ------------------------------------------------------------------ *)
(* Opening                                                             *)
(* ------------------------------------------------------------------ *)

let open_dir ?(capacity = default_capacity) dir : (t, string) result =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "model registry %s: no such directory" dir)
  else
    Ok
      {
        dir;
        capacity = max 1 capacity;
        lock = Mutex.create ();
        cache = Hashtbl.create 16;
        clock = 0;
        hits = 0;
        misses = 0;
      }

let create_dir ?capacity dir : (t, string) result =
  match if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 with
  | exception Sys_error msg -> Error msg
  | () -> open_dir ?capacity dir

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

let keys t = match list_keys t with Ok keys -> keys | Error _ -> []

let path_of t key =
  if List.mem key (keys t) then Some (file_of_key t key) else None

(* ------------------------------------------------------------------ *)
(* Save                                                                *)
(* ------------------------------------------------------------------ *)

let save t (art : Artifact.t) : (string, string) result =
  let key = Artifact.key art in
  if not (valid_key key) then
    Error (Printf.sprintf "model key %S cannot name a registry file" key)
  else
    let path = file_of_key t key in
    match Artifact.save art path with
    | Error msg -> Error msg
    | Ok () ->
      with_lock t (fun () -> Hashtbl.remove t.cache key);
      Ok path

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
   under the lock for the same reason — a torn file serves nobody.  A
   miss opens a file only for a key the directory listing returns, and
   a model filed under another key's name is malformed. *)
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
        (match list_keys t with
         | Error msg -> Error (Artifact.File_error msg)
         | Ok keys when not (List.mem key keys) ->
           Error
             (Artifact.File_error
                (Printf.sprintf "no model for %S in registry %s (available: %s)"
                   key t.dir
                   (match keys with [] -> "none" | ks -> String.concat ", " ks)))
         | Ok _ ->
           (match load_with_retry (file_of_key t key) with
            | Error e -> Error e
            | Ok artifact when Artifact.key artifact <> key ->
              Error
                (Artifact.Malformed
                   (Printf.sprintf "%s%s holds the model keyed %S" key
                      Artifact.extension (Artifact.key artifact)))
            | Ok artifact ->
              let entry = entry_of_artifact artifact in
              evict_lru t;
              Hashtbl.add t.cache key { entry; last_used = t.clock };
              Ok entry)))

let cache_stats t = with_lock t (fun () -> (t.hits, t.misses))
