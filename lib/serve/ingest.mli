(** Value ingestion shared by the CLI and the serving daemon, and the
    JSON codec of metrics snapshots.

    A column keeps its empty values, which count in its denominator.
    A file read closes its channel on every path and returns a torn
    read as an [Error], not an escaped [End_of_file].  The snapshot
    JSON has one writer, {!snapshot_to_json}, and one reader,
    {!snapshot_of_string}: the bench's [BENCH_telemetry.json],
    [autotype stats] and the daemon's [stats] reply share the one
    format. *)

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

val snapshot_to_json : Telemetry.snapshot -> Model.Jsonx.t
(** The metrics snapshot as JSON: the form of [BENCH_telemetry.json],
    of [autotype stats --json] and of the daemon's [stats] reply.  One
    object with a [counters] object of integers and a [histograms]
    object of records with the keys [count], [max], [mean], [min],
    [p50], [p95], [p99] and [sum], in that order; names keep the
    snapshot's sorted order.  A finite float prints exactly
    ({!Model.Jsonx.to_string} uses [%.17g]); a non-finite one is the
    string ["+Inf"], ["-Inf"] or ["NaN"]. *)

val snapshot_of_string : string -> (Telemetry.snapshot, string) result
(** Decode a snapshot written by {!snapshot_to_json}
    ([BENCH_telemetry.json], [autotype stats --snapshot]).  The text
    must be one JSON object whose [counters] and [histograms] members
    are objects of integers and of complete histogram records; other
    members are ignored.  A histogram's float fields are numbers or
    the strings ["+Inf"], ["-Inf"] and ["NaN"].  [Error] starts with
    ["malformed JSON: "] or ["not a metrics snapshot: "]; no input
    raises. *)
