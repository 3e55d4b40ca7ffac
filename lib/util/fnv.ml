(* 64-bit FNV-1a (see fnv.mli). *)

let basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L
let int64 h x = Int64.mul (Int64.logxor h x) prime
let int h x = int64 h (Int64.of_int x)

let string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := int !h (Char.code (String.unsafe_get s i))
  done;
  !h

let digest s = string basis s
