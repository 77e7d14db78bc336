(* Shared helpers: clocks, order statistics, /proc readers, seeded
   draws and the result line. *)

let now_ns = Telemetry.now_ns
let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6
let s_between a b = Int64.to_float (Int64.sub b a) /. 1e9

(* Nearest-rank percentile, p in [0, 100]. *)
let percentile p (xs : float array) =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile 50.0 xs
let fmax xs = Array.fold_left Float.max 0.0 xs
let fsum xs = Array.fold_left ( +. ) 0.0 xs
let mean xs = if xs = [||] then 0.0 else fsum xs /. float_of_int (Array.length xs)
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Deterministic draws from the benchmark seed.  Every sub-stream gets
   its own state, so adding draws to one phase never shifts another. *)
let rng ~seed stream = Random.State.make [| 0x5eed; seed; stream |]

let shuffle st (a : 'a array) =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* 16-hex trace id the daemon adopts verbatim, so its replies are
   byte-comparable with the in-process replay. Never zero. *)
let trace_id ~seed i =
  let open Int64 in
  let z = ref (add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int (i + 1))) in
  z := mul (logxor !z (shift_right_logical !z 30)) 0xBF58476D1CE4E5B9L;
  z := mul (logxor !z (shift_right_logical !z 27)) 0x94D049BB133111EBL;
  z := logxor !z (shift_right_logical !z 31);
  if !z = 0L then 1L else !z

(* --- /proc ----------------------------------------------------------- *)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let buf = Buffer.create 4096 in
    (try
       while true do
         Buffer.add_channel buf ic 1
       done
     with End_of_file -> ());
    Some (Buffer.contents buf)

(* VmHWM (peak resident set) of a live process, in MB. *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0.0
  | Some s ->
    let kb =
      List.find_map
        (fun line ->
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
              (fun kb -> Some kb)
          else None)
        (String.split_on_char '\n' s)
    in
    float_of_int (Option.value kb ~default:0) /. 1024.0

(* user+system CPU seconds of a live process (fields 14 and 15 of
   /proc/PID/stat, in clock ticks of 1/100 s on Linux). *)
let cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> 0.0
  | Some s ->
    (* the command name may hold spaces; fields restart after ')' *)
    let rest =
      let i = String.rindex s ')' in
      String.sub s (i + 2) (String.length s - i - 2)
    in
    let f = Array.of_list (String.split_on_char ' ' rest) in
    (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- report ----------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Human-readable lines go to stdout before the result; the result is
   the last line and nothing follows it. *)
let say fmt = Printf.printf (fmt ^^ "\n%!")

let result_line ~correct ~attempted ~failed metrics =
  let open Model.Jsonx in
  print_endline
    (to_string
       (Obj
          [ ("correct", Bool correct); ("attempted", Int attempted);
            ("failed", Int failed);
            ( "metrics",
              Obj
                (List.map
                   (fun m -> (m.name, Obj [ ("value", Float m.value); ("unit", Str m.unit_) ]))
                   metrics) ) ]))

(* Correctness gates: every failure is reported, and any one makes the
   run incorrect. *)
let failures : string list ref = ref []

let gate ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        failures := msg :: !failures;
        say "GATE FAILED: %s" msg
      end)
    fmt

(* Scratch space inside the working directory; the checkout is the only
   place the benchmark writes. *)
let out_dir = ".autobench"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* --- placement of the serve workloads' processes -------------------

   On a virtual machine, a process woken on an idle vCPU first waits
   for the hypervisor to run that vCPU again: hundreds of microseconds
   that vary with the host's other tenants, and that swamped the serve
   workloads' sub-millisecond latencies (open-loop p90 0.17-0.92 ms over
   identical runs).  And when both vCPUs are busy, the scheduler may
   wake the daemon on the load generator's vCPU, where the two share
   one CPU for a while.  So, given two CPUs and [taskset], the
   generator (which busy-polls) runs on CPU 0, and the daemon on CPU 1
   next to a nice-19 spinner that keeps that vCPU running and yields to
   the daemon at once.  Without [taskset], one spinner per CPU. *)

let taskset =
  List.find_map
    (fun dir ->
      let p = Filename.concat dir "taskset" in
      if dir <> "" && Sys.file_exists p then Some p else None)
    (String.split_on_char ':' (Option.value (Sys.getenv_opt "PATH") ~default:""))

let pinned = ref false
let daemon_cpu = "1"

(* Run taskset with [args], output to [log]; true when it succeeded. *)
let taskset_ok ~log args =
  match taskset with
  | None -> false
  | Some t ->
    let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
    let child = Unix.create_process t (Array.of_list (t :: args)) Unix.stdin fd fd in
    Unix.close fd;
    snd (Unix.waitpid [] child) = Unix.WEXITED 0

(* Set the CPU affinity of every thread of [pid]. *)
let pin ~log pid cpu = ignore (taskset_ok ~log [ "-a"; "-p"; "-c"; cpu; string_of_int pid ])

(* The command that starts [argv] on the daemon's CPU. *)
let on_daemon_cpu argv =
  match taskset with
  | Some t when !pinned -> t :: "-c" :: daemon_cpu :: argv
  | _ -> argv

let with_placement ~log f =
  let parent = Unix.getpid () in
  (* pin only where CPUs 0 and 1 are both ours *)
  pinned :=
    Domain.recommended_domain_count () >= 2
    && taskset_ok ~log [ "-c"; daemon_cpu; "true" ]
    && taskset_ok ~log [ "-a"; "-p"; "-c"; "0"; string_of_int parent ];
  let spin () =
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ Unix.stdin; Unix.stdout; Unix.stderr ];
    ignore (Unix.nice 19);
    let n = ref 0 in
    (* registers only, so the daemon's caches stay warm; an orphaned
       spinner stops by itself *)
    while Unix.getppid () = parent do
      for _ = 1 to 1_000_000 do
        incr n
      done
    done;
    Unix._exit 0
  in
  let spinners = if !pinned then 1 else Domain.recommended_domain_count () in
  let pids =
    ref (List.init spinners (fun _ -> match Unix.fork () with 0 -> spin () | pid -> pid))
  in
  if !pinned then List.iter (fun pid -> pin ~log pid daemon_cpu) !pids;
  let stop () =
    List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !pids;
    List.iter (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()) !pids;
    pids := []
  in
  (* [exit] on a failed gate skips [Fun.protect]; stop them there too *)
  at_exit stop;
  Fun.protect ~finally:stop f
