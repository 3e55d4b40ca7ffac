(* Journal-format ASCII writer and canonical parsers (see ascii.mli).

   The writers go into the caller's buffer two characters at a time: no
   format string is interpreted and no intermediate string is built.  A
   64-bit pattern is printed as two 32-bit halves held in native ints
   (this assumes 63-bit ints), so no boxed Int64 is allocated either. *)

(* Two characters packed as the native-endian 16-bit value whose bytes
   they are: [Buffer.add_uint16_ne] appends both with one bounds check,
   several times faster than two [Buffer.add_char]s. *)
let pack c0 c1 =
  let b = Bytes.create 2 in
  Bytes.set b 0 c0;
  Bytes.set b 1 c1;
  Bytes.get_uint16_ne b 0

let hex_digit i = "0123456789abcdef".[i]

(* Every byte as two hex digits, every int below 100 as two decimal
   digits. *)
let hex_pairs = Array.init 256 (fun i -> pack (hex_digit (i lsr 4)) (hex_digit (i land 15)))

let dec_pairs =
  Array.init 100 (fun i -> pack (Char.chr (48 + (i / 10))) (Char.chr (48 + (i mod 10))))

let add_pair b table i = Buffer.add_uint16_ne b (Array.unsafe_get table i)

(* [x] in [0, 2^32): eight hex digits, most significant first. *)
let add_hex32 b x =
  add_pair b hex_pairs ((x lsr 24) land 255);
  add_pair b hex_pairs ((x lsr 16) land 255);
  add_pair b hex_pairs ((x lsr 8) land 255);
  add_pair b hex_pairs (x land 255)

(* Inlined, so [add_float_bits] never boxes the bit pattern. *)
let[@inline] add_halves b x =
  add_hex32 b (Int64.to_int (Int64.shift_right_logical x 32));
  add_hex32 b (Int64.to_int x land 0xffff_ffff)

let add_hex64 b x = add_halves b x
let add_float_bits b f = add_halves b (Int64.bits_of_float f)

(* The digits of [-n] for [n <= 0], most significant first.  Working on
   the non-positive side covers [min_int], whose negation overflows;
   [n mod 100] is then in [-99, 0]. *)
let rec add_nonpos_digits b n =
  if n <= -100 then begin
    add_nonpos_digits b (n / 100);
    add_pair b dec_pairs (-(n mod 100))
  end
  else if n <= -10 then add_pair b dec_pairs (-n)
  else Buffer.add_char b (Char.unsafe_chr (48 - n))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_nonpos_digits b n
  end
  else add_nonpos_digits b (-n)

let parse_nat s =
  let len = String.length s in
  if len = 0 || (len > 1 && s.[0] = '0') then None
  else
    let rec go i acc =
      if i = len then Some acc
      else
        match s.[i] with
        | '0' .. '9' as c ->
            let d = Char.code c - 48 in
            if acc > (max_int - d) / 10 then None else go (i + 1) ((acc * 10) + d)
        | _ -> None
    in
    go 0 0

let hex_value = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | _ -> -1

(* Digits [i, stop) of [s] as a native int, or -1 on a non-digit. *)
let rec hex_half s i stop acc =
  if i = stop then acc
  else
    let d = hex_value s.[i] in
    if d < 0 then -1 else hex_half s (i + 1) stop ((acc lsl 4) lor d)

let parse_hex64 s =
  if String.length s <> 16 then None
  else
    let hi = hex_half s 0 8 0 and lo = hex_half s 8 16 0 in
    if hi < 0 || lo < 0 then None
    else Some (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))

let parse_float_bits s = Option.map Int64.float_of_bits (parse_hex64 s)
