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
   before appending so the buffer never grows past one partial frame
   plus one read chunk.  [poisoned] latches after a [Too_large] header:
   the declared payload was never read, so everything after it would be
   misparsed as headers — the connection must be dropped.  [resyncing]
   holds after a [Bad_terminator] until the next newline, which a later
   chunk may bring, so where the reads split the stream never changes
   the items. *)
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
    match String.index_from_opt dec.data dec.pos '\n' with
    | None -> None  (* incomplete header line *)
    | Some nl ->
      let header = String.sub dec.data dec.pos (nl - dec.pos) in
      if not (is_digits header) then begin
        dec.pos <- nl + 1;  (* resync at the next line boundary *)
        Some (Bad_header header)
      end
      else
        (* A digits-only header longer than 7 chars is > max_payload by
           construction; parsing it as int could even overflow. *)
        let len = if String.length header > 7 then max_int
          else int_of_string header
        in
        if len > max_payload then begin
          dec.poisoned <- true;
          Some (Too_large len)
        end
        else if String.length dec.data - (nl + 1) < len + 1 then None
          (* payload (+ terminator) not fully buffered yet *)
        else begin
          let payload = String.sub dec.data (nl + 1) len in
          let term = dec.data.[nl + 1 + len] in
          dec.pos <- nl + 1 + len + 1;
          if term = '\n' then Some (Payload payload)
          else begin
            (* Length lied: drop what we read and resync at the next
               line boundary so one bad frame costs one frame. *)
            dec.resyncing <- true;
            Some Bad_terminator
          end
        end
