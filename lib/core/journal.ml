(* Crash-safe run journal: the cell record codec and in-memory index
   over Seqdiv_util.Line_log, which owns the header, the per-line
   FNV-1a digest, torn-tail recovery, the append fast path, the
   write-tmp-then-rename rewrite and the compaction test.

   Flush modes.  A flush appends only the lines recorded since the
   last flush — O(new cells), which is what keeps a long multi-resume
   session cheap — except when the log must be rewritten whole (first
   flush, torn tail, previous-version header, or accumulated shadowed
   lines past [compact_factor] x the live entry count).  Rewrites emit
   live entries only — one line per key, newest record wins — so the
   file size stays bounded by the live cell count. *)

module Ascii = Seqdiv_util.Ascii
module Line_log = Seqdiv_util.Line_log

let version = 2
let magic = Printf.sprintf "seqdiv-journal v%d" version

(* Version 1 files (whole-file-rewrite era) are identical per line;
   accept them on load and upgrade the header on the first rewrite. *)
let magic_v1 = "seqdiv-journal v1"

exception Corrupt = Line_log.Corrupt

type entry = {
  seed : int;
  detector : string;
  window : int;
  anomaly_size : int;
  outcome : Outcome.t;
}

type t = {
  log : Line_log.t;
  index : (int * string * int * int, Outcome.t) Hashtbl.t;
  mutable entries : entry list; (* newest first; rewritten oldest-first *)
  mutable pending : entry list; (* newest first; not yet on disk *)
  mutable recovered : int;
}

(* --- record codec ------------------------------------------------------- *)

let check_field name s =
  if s = "" || String.exists (fun c -> c = ' ' || c = '\n' || c = '\t') s then
    (* lint: allow partiality — documented precondition *)
    invalid_arg (Printf.sprintf "Journal: %s contains whitespace: %S" name s)

let outcome_tag = function
  | Outcome.Blind -> "blind"
  | Outcome.Weak _ -> "weak"
  | Outcome.Capable _ -> "capable"
  | Outcome.Failed _ ->
      (* lint: allow partiality — documented precondition *)
      invalid_arg "Journal: Failed cells are never journalled"

let body_of_entry e =
  check_field "detector name" e.detector;
  let b = Buffer.create 64 in
  Buffer.add_string b "cell ";
  Ascii.add_int b e.seed;
  Buffer.add_char b ' ';
  Buffer.add_string b e.detector;
  Buffer.add_char b ' ';
  Ascii.add_int b e.window;
  Buffer.add_char b ' ';
  Ascii.add_int b e.anomaly_size;
  Buffer.add_char b ' ';
  Buffer.add_string b (outcome_tag e.outcome);
  Buffer.add_char b ' ';
  Ascii.add_float_bits b (Outcome.max_response e.outcome);
  Buffer.contents b

let entry_of_body body =
  match String.split_on_char ' ' body with
  | [ "cell"; seed; detector; window; anomaly_size; tag; bits ] -> (
      match
        ( int_of_string_opt seed,
          int_of_string_opt window,
          int_of_string_opt anomaly_size,
          Int64.of_string_opt ("0x" ^ bits) )
      with
      | Some seed, Some window, Some anomaly_size, Some bits -> (
          let m = Int64.float_of_bits bits in
          let outcome =
            match tag with
            | "blind" when m = 0.0 -> Some Outcome.Blind
            | "weak" -> Some (Outcome.Weak m)
            | "capable" -> Some (Outcome.Capable m)
            | _ -> None
          in
          match outcome with
          | Some outcome -> Some { seed; detector; window; anomaly_size; outcome }
          | None -> None)
      | _ -> None)
  | _ -> None

(* --- in-memory state ---------------------------------------------------- *)

let key_of e = (e.seed, e.detector, e.window, e.anomaly_size)

let absorb t e =
  Hashtbl.replace t.index (key_of e) e.outcome;
  t.entries <- e :: t.entries

(* Absorb the leading verified bodies that decode to cells; the first
   one that does not ends the recovered prefix. *)
let absorb_bodies t bodies =
  let rec go n = function
    | [] -> n
    | body :: more -> (
        match entry_of_body body with
        | Some e ->
            absorb t e;
            go (n + 1) more
        | None -> n)
  in
  go 0 bodies

(* --- public api --------------------------------------------------------- *)

let default_compact_factor = 4.0

let start ?(resume = false) ?(compact_factor = default_compact_factor)
    ~context path =
  let t =
    {
      log = Line_log.create ~magic ~compact_factor ~context path;
      index = Hashtbl.create 256;
      entries = [];
      pending = [];
      recovered = 0;
    }
  in
  if resume && Sys.file_exists path then begin
    Line_log.load t.log ~legacy:[ magic_v1 ] (absorb_bodies t);
    t.recovered <- Hashtbl.length t.index
  end;
  t

let path t = Line_log.path t.log
let context t = Line_log.context t.log
let recovered t = t.recovered
let dropped_lines t = Line_log.dropped t.log
let appends t = Line_log.appends t.log
let compactions t = Line_log.compactions t.log

let lookup t ~seed ~detector ~window ~anomaly_size =
  Hashtbl.find_opt t.index (seed, detector, window, anomaly_size)

let record t e =
  ignore (body_of_entry e) (* validate before accepting *);
  absorb t e;
  t.pending <- e :: t.pending

let entries t = List.rev t.entries

(* The live entries, oldest-first, one per key (the newest record of
   each key — what the index answers).  This is what a rewrite emits,
   which is what bounds the file by the live cell count. *)
let live_entries t =
  let seen = Hashtbl.create (Hashtbl.length t.index) in
  let keep =
    List.filter
      (fun e ->
        let k = key_of e in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      t.entries (* newest first: the first occurrence of a key wins *)
  in
  List.rev keep

let flush t =
  if t.pending <> [] then begin
    let pending = List.rev_map body_of_entry t.pending in
    if
      Line_log.must_rewrite t.log ~adding:(List.length pending)
        ~live:(Hashtbl.length t.index)
    then Line_log.rewrite t.log (List.map body_of_entry (live_entries t))
    else Line_log.append t.log pending;
    t.pending <- []
  end
