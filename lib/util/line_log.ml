(* Crash-safe log of digested lines (see line_log.mli for the format
   and the durability contract). *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

type t = {
  path : string;
  magic : string;
  context : string;
  compact_factor : float;
  mutable lines : int; (* digested lines in the file *)
  mutable appendable : bool;
      (* the file is exactly the current header, the context and
         [lines] whole digest-valid lines ending in a newline — safe to
         append to *)
  mutable dropped : int;
  mutable appends : int;
  mutable compactions : int;
}

let create ~magic ~compact_factor ~context path =
  if String.contains context '\n' then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Line_log.create: context contains a newline";
  {
    path;
    magic;
    context;
    compact_factor;
    lines = 0;
    appendable = false;
    dropped = 0;
    appends = 0;
    compactions = 0;
  }

let path t = t.path
let context t = t.context
let dropped t = t.dropped
let appends t = t.appends
let compactions t = t.compactions

(* --- line codec --------------------------------------------------------- *)

let body_of_line line =
  match String.rindex_opt line ' ' with
  | None -> None
  | Some cut -> (
      let body = String.sub line 0 cut in
      let digest = String.sub line (cut + 1) (String.length line - cut - 1) in
      match Ascii.parse_hex64 digest with
      | Some d when Int64.equal d (Fnv.digest body) -> Some body
      | Some _ | None -> None)

(* --- load --------------------------------------------------------------- *)

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match In_channel.input_line ic with
        | Some line -> go (line :: acc)
        | None -> List.rev acc
      in
      go [])

(* Whether the file ends in a newline: [input_line] swallows a missing
   final newline, so a file whose last line verifies can still be
   append-unsafe — an appended line would splice onto it. *)
let ends_with_newline path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      if n = 0 then false
      else begin
        seek_in ic (n - 1);
        input_char ic = '\n'
      end)

let context_prefix = "context "

let load t ~legacy keep =
  match read_lines t.path with
  | [] -> corrupt "%s: empty journal (missing %S header)" t.path t.magic
  | header :: rest ->
      let current = String.equal header t.magic in
      if not (current || List.mem header legacy) then
        corrupt "%s: bad journal header %S (want %S)" t.path header t.magic;
      let lines =
        match rest with
        | context_line :: lines
          when String.starts_with ~prefix:context_prefix context_line
               && String.length context_line > String.length context_prefix ->
            let n = String.length context_prefix in
            let ctx = String.sub context_line n (String.length context_line - n) in
            if not (String.equal ctx t.context) then
              corrupt
                "%s: journal was written for a different run (%s, this run \
                 is %s) — refusing to resume from it"
                t.path ctx t.context;
            lines
        | _ -> corrupt "%s: missing context line" t.path
      in
      (* Torn-tail recovery: an interrupted write can leave a partial
         final line or trailing garbage.  Hand the caller the longest
         digest-valid prefix and count whatever it does not accept as
         dropped — never refuse the whole file for a damaged tail. *)
      let rec valid acc = function
        | [] -> List.rev acc
        | line :: more -> (
            match body_of_line line with
            | Some body -> valid (body :: acc) more
            | None -> List.rev acc)
      in
      let kept = keep (valid [] lines) in
      t.lines <- kept;
      t.dropped <- List.length lines - kept;
      t.appendable <- current && t.dropped = 0 && ends_with_newline t.path

(* --- writes ------------------------------------------------------------- *)

let must_rewrite t ~adding ~live =
  (not t.appendable)
  || (not (Sys.file_exists t.path))
  || t.compact_factor <= 0.0
  || float_of_int (t.lines + adding) > t.compact_factor *. float_of_int live

let fsync_out oc =
  Stdlib.flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

let output_line oc s =
  output_string oc s;
  output_char oc '\n'

(* Each body goes to the channel as it is; only the digest suffix
   " <16 hex>\n" is built, in one buffer reused for every line. *)
let output_bodies oc bodies =
  let suffix = Buffer.create 18 in
  List.iter
    (fun body ->
      Buffer.clear suffix;
      Buffer.add_char suffix ' ';
      Ascii.add_hex64 suffix (Fnv.digest body);
      Buffer.add_char suffix '\n';
      output_string oc body;
      Buffer.output_buffer oc suffix)
    bodies

(* A rename is durable only once its directory entry is: without this
   fsync a power loss can bring back the previous file, or none. *)
let fsync_dir path =
  let fd = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

let rewrite t bodies =
  t.appendable <- false;
  let tmp = t.path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () ->
         output_line oc t.magic;
         output_line oc (context_prefix ^ t.context);
         output_bodies oc bodies;
         fsync_out oc)
   with
  | () -> ()
  (* lint: allow swallow — tmp cleanup only; the exception is re-raised *)
  | exception exn ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise exn);
  Sys.rename tmp t.path;
  fsync_dir t.path;
  t.lines <- List.length bodies;
  t.appendable <- true;
  t.compactions <- t.compactions + 1

let append t bodies =
  (* If the append is interrupted the tail state is unknown; the next
     write (or resume) must go through the rewrite path. *)
  t.appendable <- false;
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 t.path
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_bodies oc bodies;
      fsync_out oc);
  t.lines <- t.lines + List.length bodies;
  t.appendable <- true;
  t.appends <- t.appends + 1
