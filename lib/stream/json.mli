(** The one JSON value type, printer and parser.  {!Frame}'s ndjson
    codec is built on it, and the bench reports are values of {!t}
    printed by {!print}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val print : Buffer.t -> t -> unit
(** Append the value on one line, with no whitespace; floats print as
    [%.17g], so they read back bit-exactly.  In a string, a double
    quote or a backslash gets a backslash before it, newline and tab
    become the two-character escapes n and t, other control bytes a
    four-hex-digit u escape; every other byte passes through. *)

val parse : string -> t
(** Parse one value spanning the whole string.  Minimal but total:
    every malformed shape raises {!Parse_error.Error} with a position,
    and a u escape above code 255 is refused. *)
