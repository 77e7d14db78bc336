(** Fixed-size domain pool with a deterministic, order-preserving
    [parallel_map].  See exec.mli for the contract. *)

let default_jobs () = max 1 (min 8 (Domain.recommended_domain_count ()))

module Deadline = struct
  type t = int64  (** absolute CLOCK_MONOTONIC ns, Telemetry's clock *)

  let now_ns = Telemetry.now_ns

  let after_ms ms =
    let ns = Int64.of_float (ms *. 1e6) in
    Int64.add (now_ns ()) (Int64.max 0L ns)

  let to_ns t = t

  let expired t = Int64.compare (now_ns ()) t >= 0

  (* The effective deadline of a nested scope: whichever bound cuts
     first.  [None] means unbounded on that side. *)
  let min_opt a b =
    match (a, b) with
    | None, d | d, None -> d
    | Some x, Some y -> Some (Int64.min x y)
end

module Pool = struct
  type task = unit -> unit

  type t = {
    jobs : int;
    mutex : Mutex.t;  (** guards [pending] and [stop] *)
    work_available : Condition.t;
    pending : task Queue.t;
    mutable stop : bool;
    mutable workers : unit Domain.t list;
  }

  let jobs t = t.jobs

  (* Workers block on the queue and run tasks until shutdown.  Tasks are
     closures built by [parallel_map]; they never raise (element-level
     exceptions are captured into the map's failure slot). *)
  let rec worker_loop pool =
    Mutex.lock pool.mutex;
    let rec take () =
      if pool.stop then None
      else
        match Queue.take_opt pool.pending with
        | Some _ as t -> t
        | None ->
          Condition.wait pool.work_available pool.mutex;
          take ()
    in
    let task = take () in
    Mutex.unlock pool.mutex;
    match task with
    | None -> ()
    | Some task ->
      task ();
      worker_loop pool

  let create ~jobs =
    let jobs = max 1 jobs in
    let pool =
      {
        jobs;
        mutex = Mutex.create ();
        work_available = Condition.create ();
        pending = Queue.create ();
        stop = false;
        workers = [];
      }
    in
    pool.workers <-
      List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
    pool

  let shutdown pool =
    Mutex.lock pool.mutex;
    pool.stop <- true;
    Condition.broadcast pool.work_available;
    Mutex.unlock pool.mutex;
    List.iter Domain.join pool.workers;
    pool.workers <- []

  let with_pool ~jobs f =
    let pool = create ~jobs in
    Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

  let parallel_map (type a b) pool (f : a -> b) (xs : a list) : b list =
    match xs with
    | [] -> []
    | [ x ] -> [ f x ]
    | _ ->
      let input = Array.of_list xs in
      let n = Array.length input in
      let results : b option array = Array.make n None in
      (* Lowest-index failure wins, mirroring which exception a
         sequential List.map would have raised. *)
      let failed : (int * exn * Printexc.raw_backtrace) option Atomic.t =
        Atomic.make None
      in
      let record_failure i exn bt =
        let rec cas () =
          let cur = Atomic.get failed in
          match cur with
          | Some (j, _, _) when j <= i -> ()
          | _ ->
            if not (Atomic.compare_and_set failed cur (Some (i, exn, bt)))
            then cas ()
        in
        cas ()
      in
      let next = Atomic.make 0 in
      (* Capture the caller's trace context so helper tasks running on
         pool domains attribute their spans/events to the same request
         as the inline chunk. *)
      let ctx = Telemetry.Context.current () in
      let run_chunk () =
        let rec loop () =
          if Atomic.get failed = None then begin
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              (match f input.(i) with
               | y -> results.(i) <- Some y
               | exception exn ->
                 record_failure i exn (Printexc.get_raw_backtrace ()));
              loop ()
            end
          end
        in
        loop ()
      in
      (* The caller is one worker; enqueue helper tasks for the rest. *)
      let helpers = min (pool.jobs - 1) (n - 1) in
      let fin_mutex = Mutex.create () in
      let fin_cond = Condition.create () in
      let remaining = ref helpers in
      let helper_task () =
        Telemetry.Context.with_current ctx run_chunk;
        Mutex.lock fin_mutex;
        decr remaining;
        if !remaining = 0 then Condition.signal fin_cond;
        Mutex.unlock fin_mutex
      in
      if helpers > 0 then begin
        Mutex.lock pool.mutex;
        for _ = 1 to helpers do
          Queue.add helper_task pool.pending
        done;
        Condition.broadcast pool.work_available;
        Mutex.unlock pool.mutex
      end;
      run_chunk ();
      (* Reclaim helper tasks no worker picked up (all elements may
         already be done), so the wait below cannot hang. *)
      if helpers > 0 then begin
        Mutex.lock pool.mutex;
        let kept = Queue.create () in
        let reclaimed = ref 0 in
        Queue.iter
          (fun t -> if t == helper_task then incr reclaimed else Queue.add t kept)
          pool.pending;
        Queue.clear pool.pending;
        Queue.transfer kept pool.pending;
        Mutex.unlock pool.mutex;
        Mutex.lock fin_mutex;
        remaining := !remaining - !reclaimed;
        Mutex.unlock fin_mutex
      end;
      Mutex.lock fin_mutex;
      while !remaining > 0 do
        Condition.wait fin_cond fin_mutex
      done;
      Mutex.unlock fin_mutex;
      (match Atomic.get failed with
       | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
       | None -> ());
      Array.to_list
        (Array.map
           (function Some y -> y | None -> assert false)
           results)
end

let map ?pool f xs =
  match pool with
  | None -> List.map f xs
  | Some pool -> Pool.parallel_map pool f xs
