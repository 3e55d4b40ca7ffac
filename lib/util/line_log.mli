(** A crash-safe log of digested lines — the durable layer under both
    journals ({!Seqdiv_core.Journal} and {!Seqdiv_core.Shard_journal}).

    {b Format.}
    {v
<magic>
context <free text identifying the run configuration>
<body> <16-hex FNV-1a of body>
...
    v}
    The digest is 16 lower-case hex digits ({!Ascii.add_hex64}); a line
    whose digest is spelled any other way is not digest-valid.  The log
    knows nothing of what a body means: each journal encodes
    its records as single-line bodies and parses the verified bodies
    back itself.

    {b Writes.}  {!append} adds lines with an append-mode write and an
    [fsync].  {!rewrite} replaces the whole file: it writes [path ^
    ".tmp"], fsyncs it, renames it over [path] (atomic within a
    directory on POSIX) and fsyncs the directory, so the rename itself
    survives power loss.  A crash at any instant leaves either the old
    complete file or the new one.  {!must_rewrite} says which of the
    two a write must take.

    {b Recovery.}  {!load} accepts the longest prefix of digest-valid
    lines the caller also accepts, and counts every line after it as
    {!dropped} instead of refusing the file.  A header or context that
    does not match raises {!Corrupt}. *)

exception Corrupt of string
(** The file is not a log this run can trust: bad magic, missing
    context line, or a context naming a different run. *)

type t

val create : magic:string -> compact_factor:float -> context:string -> string -> t
(** A log at the given path.  Touches no file: the first write is a
    {!rewrite} (the log starts not appendable).
    @raise Invalid_argument if [context] contains a newline. *)

val load : t -> legacy:string list -> (string list -> int) -> unit
(** [load t ~legacy keep] reads the file at [path t].  The header must
    be the log's magic or one of the [legacy] headers, and the second
    line must be [context] followed by the log's context.  [keep]
    receives the bodies of the longest prefix of digest-valid lines, in
    file order, and returns how many leading bodies it accepts; every
    line after those counts as {!dropped}.  The file stays appendable
    only if its header is current, nothing was dropped and it ends in a
    newline; otherwise the next write rewrites it.
    @raise Corrupt as described above. *)

val must_rewrite : t -> adding:int -> live:int -> bool
(** Whether writing [adding] more lines must rewrite the file rather
    than append: the file is not appendable or is gone, [compact_factor
    <= 0] (always rewrite), or the lines on disk plus [adding] exceed
    [compact_factor] times [live] — compaction. *)

val append : t -> string list -> unit
(** Append these bodies as digested lines, then fsync.  An interrupted
    append leaves the log not appendable. *)

val rewrite : t -> string list -> unit
(** Replace the file by the header, the context and these bodies, via
    tmp + fsync + rename + directory fsync. *)

val path : t -> string
val context : t -> string

val dropped : t -> int
(** Lines discarded by {!load} (0 for a clean file). *)

val appends : t -> int
(** {!append}s since {!create}. *)

val compactions : t -> int
(** {!rewrite}s since {!create}: first writes, torn-tail repairs,
    header upgrades and compactions all count. *)
