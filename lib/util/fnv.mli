(** 64-bit FNV-1a: the one hash behind both journals' line digests and
    the engine's trace fingerprints and chaos-plan task keys.

    Every function folds into an explicit running hash, so a key over
    several fields is a chain of mixes from {!basis}.  The values are
    persisted (journal digests) and pinned by goldens (task keys pick
    which tasks a seeded fault plan trips), so they must never change. *)

val basis : int64
(** The FNV-1a offset basis: the hash of no input. *)

val int : int64 -> int -> int64
(** [int h x] mixes [x] as one unit: XOR it in, multiply by the FNV
    prime.  A byte is mixed as its code. *)

val int64 : int64 -> int64 -> int64
(** As {!int}, for a 64-bit value. *)

val string : int64 -> string -> int64
(** Mix every byte of the string, in order. *)

val digest : string -> int64
(** [digest s] is [string basis s], the classic FNV-1a of [s]. *)
