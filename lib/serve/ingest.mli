(** Value ingestion shared by the CLI and the serving daemon.

    Columns and snapshot files used to be read by ad-hoc helpers inside
    the CLI, with two real bugs: blank lines were silently dropped from
    columns (so a column containing empty values was scored over the
    wrong denominator), and a snapshot file truncated mid-read (e.g. by
    a concurrent rewrite under [stats --watch]) leaked the channel and
    escaped with an uncaught [End_of_file].  This module is the single
    fixed implementation. *)

val read_column : string -> (string list, string) result
(** Read a column file, one value per line, {e preserving empty
    lines}: an empty value is a real value and counts in the column's
    denominator.  Only a trailing ['\r'] is stripped (CRLF input).
    Every empty value read bumps the [detect.empty_values] counter.
    [Error] on unreadable files instead of an exception. *)

val read_examples : string -> (string list, string) result
(** Read a positive-examples file: lines are trimmed and blank lines
    are skipped (the historical [read_lines] behavior, which is right
    for examples — a blank line in an examples file is formatting, not
    an example). *)

val read_channel : in_channel -> len:int -> (string, string) result
(** Read exactly [len] bytes; [Error] (not an escaped [End_of_file])
    when the stream ends early — the torn-read case where a file
    shrinks between [in_channel_length] and the read.  The channel is
    the caller's to close. *)

val read_file : string -> (string, string) result
(** Whole-file read.  The channel is closed on every path
    ([Fun.protect]); truncation and I/O errors come back as [Error]. *)

val snapshot_of_string : string -> (Telemetry.snapshot, string) result
(** Decode a snapshot file as written by {!Telemetry.Expose.render_json}
    ([BENCH_telemetry.json], [autotype stats --snapshot]).  The text
    must be one JSON object whose [counters] and [histograms] members
    are objects of integers and of complete histogram records; other
    members are ignored.  A histogram's float fields are numbers or
    the strings ["+Inf"], ["-Inf"] and ["NaN"] that [render_json]
    writes for non-finite values.  [Error] starts with
    ["malformed JSON: "] or ["not a metrics snapshot: "]; no input
    raises. *)
