(** Length-prefixed framing for the serving wire protocol (see
    frame.mli). *)

let max_payload = 4 * 1024 * 1024

let encode payload =
  Printf.sprintf "%d\n%s\n" (String.length payload) payload

type item =
  | Payload of string
  | Bad_header of string  (** the offending header line, resynced past *)
  | Bad_terminator  (** payload not followed by '\n', resynced past *)
  | Too_large of int  (** declared length; the stream is poisoned *)

(* Unconsumed bytes live in [data] from offset [pos]; [feed] compacts
   before appending, and a header line is answered by its eighth byte,
   so the buffer never grows past one partial frame plus one read
   chunk.  [poisoned] latches after a [Too_large] header: the declared
   payload was never read, so everything after it would be misparsed
   as headers — the connection must be dropped.  [resyncing] holds
   after a [Bad_terminator], or a header cut at its eighth byte, until
   the next newline, which a later chunk may bring, so where the reads
   split the stream never changes the items. *)
type decoder = {
  mutable data : string;
  mutable pos : int;
  mutable poisoned : bool;
  mutable resyncing : bool;
}

let decoder () = { data = ""; pos = 0; poisoned = false; resyncing = false }

let feed dec chunk =
  if not dec.poisoned then begin
    let pending = String.length dec.data - dec.pos in
    if pending = 0 then dec.data <- chunk
    else dec.data <- String.sub dec.data dec.pos pending ^ chunk;
    dec.pos <- 0
  end

let pending dec = String.length dec.data - dec.pos

let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

(* The longest header a frame can have: [max_payload] has 7 digits. *)
let max_header = 7

let rec next dec : item option =
  if dec.poisoned then None
  else if dec.resyncing then
    match String.index_from_opt dec.data dec.pos '\n' with
    | None ->
      dec.pos <- String.length dec.data;
      None
    | Some nl ->
      dec.pos <- nl + 1;
      dec.resyncing <- false;
      next dec
  else
    let nl = String.index_from_opt dec.data dec.pos '\n' in
    let line_end = Option.value nl ~default:(String.length dec.data) in
    if nl = None && line_end - dec.pos <= max_header then None
      (* incomplete header line *)
    else
      (* A header is judged by its first eight bytes at most, whether or
         not its newline has arrived: a header line never grows the
         buffer, and where reads split it never changes the items. *)
      let header =
        String.sub dec.data dec.pos (min (line_end - dec.pos) (max_header + 1))
      in
      if not (is_digits header) then begin
        (* resync at the next line boundary, which a later read may bring *)
        (match nl with
         | Some nl -> dec.pos <- nl + 1
         | None ->
           dec.pos <- String.length dec.data;
           dec.resyncing <- true);
        Some (Bad_header header)
      end
      else
        (* Eight digits declare more than max_payload by construction;
           parsing them as int could even overflow.  Fewer digits got
           here only with their newline, at [line_end]. *)
        let len =
          if String.length header > max_header then max_int
          else int_of_string header
        in
        if len > max_payload then begin
          dec.poisoned <- true;
          Some (Too_large len)
        end
        else if String.length dec.data - (line_end + 1) < len + 1 then None
          (* payload (+ terminator) not fully buffered yet *)
        else begin
          let payload = String.sub dec.data (line_end + 1) len in
          let term = dec.data.[line_end + 1 + len] in
          dec.pos <- line_end + 1 + len + 1;
          if term = '\n' then Some (Payload payload)
          else begin
            (* Length lied: drop what we read and resync at the next
               line boundary so one bad frame costs one frame. *)
            dec.resyncing <- true;
            Some Bad_terminator
          end
        end
