(* Shared helpers: order statistics, a minimal JSON writer, process
   memory and filesystem probes, and the run's failure exception. *)

exception Check_failed of string
(* A reference check, replay guard or validity check did not hold: the
   run's outputs are wrong (or its measurement is), so it reports
   [correct = false]. *)

exception Refused of string
(* The run cannot be measured honestly here (e.g. a tmpfs journal
   directory): no result is printed and the exit code is non-zero. *)

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

let now = Unix.gettimeofday

(* --- order statistics ------------------------------------------------- *)

let sorted_copy a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* Nearest-rank percentile, [p] in [0, 100]; 0 on an empty sample. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let s = sorted_copy a in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    s.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

let median a =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let s = sorted_copy a in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* [k] contiguous, near-equal slices [lo, hi) of [0, n). *)
let segments n k = Array.init k (fun j -> (j * n / k, (j + 1) * n / k))

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- JSON ------------------------------------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Float _ -> "null"
  | String s -> "\"" ^ escape s ^ "\""
  | List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kv ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kv)
      ^ "}"

(* --- /proc probes ----------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* VmHWM of a process (peak resident set), in MiB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let kb =
    List.find_map
      (fun line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Option.some
        else None)
      (read_lines path)
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> raise (Check_failed ("no VmHWM in " ^ path))

let rec realpath path =
  if Filename.is_relative path then realpath (Filename.concat (Sys.getcwd ()) path)
  else
    (* Normalise "." and ".." lexically; the directory exists, so no
       symlink games are expected inside the checkout. *)
    let parts = String.split_on_char '/' path in
    let stack =
      List.fold_left
        (fun acc p ->
          match p with
          | "" | "." -> acc
          | ".." -> ( match acc with [] -> [] | _ :: rest -> rest)
          | p -> p :: acc)
        [] parts
    in
    "/" ^ String.concat "/" (List.rev stack)

(* The filesystem type holding [dir]: the longest mount point in
   /proc/self/mounts that prefixes its absolute path. *)
let fs_type dir =
  let target = realpath dir in
  let under mount =
    mount = "/"
    || target = mount
    || String.length target > String.length mount
       && String.sub target 0 (String.length mount) = mount
       && target.[String.length mount] = '/'
  in
  List.fold_left
    (fun (best_len, best) line ->
      match String.split_on_char ' ' line with
      | _dev :: mount :: fstype :: _ when under mount ->
          let l = String.length mount in
          if l >= best_len then (l, fstype) else (best_len, best)
      | _ -> (best_len, best))
    (-1, "unknown")
    (read_lines "/proc/self/mounts")
  |> snd

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
