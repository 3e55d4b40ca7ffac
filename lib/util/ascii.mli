(** The one writer and reader of the journal formats' ASCII fields.

    Every journal record and token — {!Line_log} digests, the cell and
    shard journals' record bodies, the quantile-sketch and
    adaptive-threshold tokens — and the incident-log and ndjson bit
    fields print their integers and IEEE-754 bit patterns through this
    module.  The writers append to a caller's [Buffer.t] and allocate
    nothing themselves; their output is byte-for-byte what [Printf]'s
    [%d] and [%016Lx] print, so the formats they replaced are
    unchanged.

    The parsers are the writers' exact inverses: they accept only what
    a writer emits.  A field that decodes therefore re-encodes to
    itself, and a decoder built from them is canonical. *)

val add_int : Buffer.t -> int -> unit
(** [add_int b n] appends [n] in decimal, as [Printf]'s ["%d"] does:
    a leading ['-'] for negatives, no leading zeros, [min_int]
    included. *)

val add_hex64 : Buffer.t -> int64 -> unit
(** [add_hex64 b x] appends [x] as 16 lower-case hex digits, as
    ["%016Lx"] does. *)

val add_float_bits : Buffer.t -> float -> unit
(** [add_float_bits b f] is [add_hex64 b (Int64.bits_of_float f)],
    without boxing the bit pattern. *)

val parse_nat : string -> int option
(** A canonical non-negative decimal: ["0"], or a non-zero digit
    followed by digits, at most [max_int].  [None] for anything else —
    a sign, a leading zero, [_], a radix prefix, overflow. *)

val parse_hex64 : string -> int64 option
(** Exactly 16 lower-case hex digits, as {!add_hex64} writes them;
    [None] for anything else. *)

val parse_float_bits : string -> float option
(** {!parse_hex64} read as an IEEE-754 bit pattern: the inverse of
    {!add_float_bits}, NaNs included. *)
