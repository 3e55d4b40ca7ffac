(* Per-shard serve journal: the session/batch record codec, commit
   groups and in-memory state over Seqdiv_util.Line_log, which owns
   the header, the per-line FNV-1a digest, torn-tail recovery, the
   append fast path, the write-tmp-then-rename rewrite and the
   compaction test.  Commit groups make one flush atomic with respect
   to recovery.  See the .mli for the contract and the format
   rationale. *)

open Seqdiv_stream
module Ascii = Seqdiv_util.Ascii
module Line_log = Seqdiv_util.Line_log

let magic = "seqdiv-shard-journal v1"

exception Corrupt = Line_log.Corrupt

type session_state = {
  js_session : int;
  js_consumed : int;
  js_state : int;
  js_open : Frame.incident option;
  js_adaptive : string option;
      (* opaque Adaptive_threshold token; space-free by construction *)
}

type batch_record = {
  jb_id : int;
  jb_shard : int;
  jb_events : int;
  jb_incidents : Frame.incident_event list;
}

(* A parsed record line, pre-commit. *)
type record =
  | Session of session_state
  | Ended of int
  | Batch of batch_record

type t = {
  log : Line_log.t;
  batch_history : int;
  live : (int, session_state) Hashtbl.t;
  batch_q : batch_record Queue.t; (* oldest first, bounded *)
  body_buf : Buffer.t; (* where each body is encoded *)
  mutable pending : string list; (* record bodies, newest first *)
  mutable pending_count : int;
  mutable recovered_sessions : int;
  mutable recovered_batches : int;
}

(* --- record codec -------------------------------------------------------

   Bodies are written field by field into a buffer with Ascii and read
   back with its canonical parsers, so a body decodes only if it is
   exactly what the encoder writes for the decoded record. *)

let add_incident b (i : Frame.incident) =
  Ascii.add_int b i.Frame.first_start;
  Buffer.add_char b ':';
  Ascii.add_int b i.Frame.last_start;
  Buffer.add_char b ':';
  Ascii.add_int b i.Frame.cover_from;
  Buffer.add_char b ':';
  Ascii.add_int b i.Frame.cover_to;
  Buffer.add_char b ':';
  Ascii.add_int b i.Frame.alarms;
  Buffer.add_char b ':';
  Ascii.add_float_bits b i.Frame.peak_score

let incident_of_token tok =
  match String.split_on_char ':' tok with
  | [ first; last; cfrom; cto; alarms; bits ] -> (
      match
        ( Ascii.parse_nat first,
          Ascii.parse_nat last,
          Ascii.parse_nat cfrom,
          Ascii.parse_nat cto,
          Ascii.parse_nat alarms,
          Ascii.parse_float_bits bits )
      with
      | Some first_start, Some last_start, Some cover_from, Some cover_to,
        Some alarms, Some peak_score ->
          Some
            {
              Frame.first_start;
              last_start;
              cover_from;
              cover_to;
              alarms;
              peak_score;
            }
      | _ -> None)
  | _ -> None

(* Static sessions keep the historical 5-field line; adaptive sessions
   append the controller token as a 6th field (it contains no spaces,
   so the space-split parse sees exactly one extra field). *)
let add_session b s =
  Buffer.add_string b "s ";
  Ascii.add_int b s.js_session;
  Buffer.add_char b ' ';
  Ascii.add_int b s.js_consumed;
  Buffer.add_char b ' ';
  Ascii.add_int b s.js_state;
  Buffer.add_char b ' ';
  (match s.js_open with
  | None -> Buffer.add_char b '-'
  | Some i -> add_incident b i);
  match s.js_adaptive with
  | None -> ()
  | Some token ->
      Buffer.add_char b ' ';
      Buffer.add_string b token

let add_ended b session =
  Buffer.add_string b "e ";
  Ascii.add_int b session

let add_incident_event b = function
  | Frame.Opened { session; position } ->
      Buffer.add_string b "o:";
      Ascii.add_int b session;
      Buffer.add_char b ':';
      Ascii.add_int b position
  | Frame.Closed { session; incident } ->
      Buffer.add_string b "c:";
      Ascii.add_int b session;
      Buffer.add_char b ':';
      add_incident b incident

let incident_event_of_token tok =
  match String.index_opt tok ':' with
  | None -> None
  | Some cut -> (
      let rest = String.sub tok (cut + 1) (String.length tok - cut - 1) in
      match String.sub tok 0 cut with
      | "o" -> (
          match String.split_on_char ':' rest with
          | [ session; position ] -> (
              match (Ascii.parse_nat session, Ascii.parse_nat position) with
              | Some session, Some position ->
                  Some (Frame.Opened { session; position })
              | _ -> None)
          | _ -> None)
      | "c" -> (
          match String.index_opt rest ':' with
          | None -> None
          | Some cut2 -> (
              let session = String.sub rest 0 cut2 in
              let inc = String.sub rest (cut2 + 1) (String.length rest - cut2 - 1) in
              match (Ascii.parse_nat session, incident_of_token inc) with
              | Some session, Some incident ->
                  Some (Frame.Closed { session; incident })
              | _ -> None))
      | _ -> None)

let add_batch b r =
  Buffer.add_string b "b ";
  Ascii.add_int b r.jb_id;
  Buffer.add_char b ' ';
  Ascii.add_int b r.jb_shard;
  Buffer.add_char b ' ';
  Ascii.add_int b r.jb_events;
  Buffer.add_char b ' ';
  Ascii.add_int b (List.length r.jb_incidents);
  List.iter
    (fun e ->
      Buffer.add_char b ' ';
      add_incident_event b e)
    r.jb_incidents

let add_commit b count =
  Buffer.add_string b "k ";
  Ascii.add_int b count

(* A verified body back into its parsed form; None on any damage. *)
let parse_body body =
  match String.split_on_char ' ' body with
  | "s" :: session :: consumed :: state :: open_tok :: (([] | [ _ ]) as rest)
    -> (
      let js_adaptive =
        match rest with
        | [] -> Some None
        | [ adaptive ] when adaptive <> "" -> Some (Some adaptive)
        | _ -> None
      in
      match
        ( Ascii.parse_nat session,
          Ascii.parse_nat consumed,
          Ascii.parse_nat state,
          (if open_tok = "-" then Some None
           else Option.map Option.some (incident_of_token open_tok)),
          js_adaptive )
      with
      | Some js_session, Some js_consumed, Some js_state, Some js_open,
        Some js_adaptive ->
          Some
            (`Record
              (Session { js_session; js_consumed; js_state; js_open; js_adaptive }))
      | _ -> None)
  | [ "e"; session ] ->
      Option.map (fun s -> `Record (Ended s)) (Ascii.parse_nat session)
  | "b" :: id :: shard :: events :: count :: toks -> (
      match
        ( Ascii.parse_nat id,
          Ascii.parse_nat shard,
          Ascii.parse_nat events,
          Ascii.parse_nat count )
      with
      | Some jb_id, Some jb_shard, Some jb_events, Some count
        when count = List.length toks -> (
          let incidents = List.map incident_event_of_token toks in
          if List.for_all Option.is_some incidents then
            Some
              (`Record
                (Batch
                   {
                     jb_id;
                     jb_shard;
                     jb_events;
                     jb_incidents = List.filter_map Fun.id incidents;
                   }))
          else None)
      | _ -> None)
  | [ "k"; count ] -> Option.map (fun c -> `Commit c) (Ascii.parse_nat count)
  | _ -> None

(* --- in-memory state ---------------------------------------------------- *)

let apply_record t = function
  | Session s -> Hashtbl.replace t.live s.js_session s
  | Ended session -> Hashtbl.remove t.live session
  | Batch b ->
      Queue.push b t.batch_q;
      while Queue.length t.batch_q > t.batch_history do
        ignore (Queue.pop t.batch_q)
      done

(* Commit-group recovery: records buffer until their commit marker and
   only complete groups are applied.  A record that does not parse, a
   marker whose count disagrees with its group, or the end of the
   verified lines ends the recovered prefix, dropping the buffered group
   instead of applying a half-flush.  Returns the lines kept. *)
let apply_groups t bodies =
  let rec go kept group_rev group_n = function
    | [] -> kept
    | body :: more -> (
        match parse_body body with
        | Some (`Record r) -> go kept (r :: group_rev) (group_n + 1) more
        | Some (`Commit count) when count = group_n ->
            List.iter (apply_record t) (List.rev group_rev);
            go (kept + group_n + 1) [] 0 more
        | Some (`Commit _) | None -> kept)
  in
  go 0 [] 0 bodies

(* --- public api --------------------------------------------------------- *)

let default_compact_factor = 4.0
let default_batch_history = 64

let start ?(resume = false) ?(compact_factor = default_compact_factor)
    ?(batch_history = default_batch_history) ~context path =
  let t =
    {
      log = Line_log.create ~magic ~compact_factor ~context path;
      batch_history = max 1 batch_history;
      live = Hashtbl.create 256;
      batch_q = Queue.create ();
      body_buf = Buffer.create 256;
      pending = [];
      pending_count = 0;
      recovered_sessions = 0;
      recovered_batches = 0;
    }
  in
  if resume && Sys.file_exists path then begin
    Line_log.load t.log ~legacy:[] (apply_groups t);
    t.recovered_sessions <- Hashtbl.length t.live;
    t.recovered_batches <- Queue.length t.batch_q
  end;
  t

let path t = Line_log.path t.log
let context t = Line_log.context t.log
let recovered_sessions t = t.recovered_sessions
let recovered_batches t = t.recovered_batches
let dropped_lines t = Line_log.dropped t.log
let appends t = Line_log.appends t.log
let compactions t = Line_log.compactions t.log

let body t add x =
  Buffer.clear t.body_buf;
  add t.body_buf x;
  Buffer.contents t.body_buf

let push_pending t body record =
  apply_record t record;
  t.pending <- body :: t.pending;
  t.pending_count <- t.pending_count + 1

let record_session t s = push_pending t (body t add_session s) (Session s)

let record_end t ~session =
  push_pending t (body t add_ended session) (Ended session)

let record_batch t b = push_pending t (body t add_batch b) (Batch b)

let sessions t =
  (* lint: allow determinism — collection order is erased by the sort *)
  Hashtbl.fold (fun _ s acc -> s :: acc) t.live []
  |> List.sort (fun a b -> compare a.js_session b.js_session)

let batches t = List.of_seq (Queue.to_seq t.batch_q)

(* A commit appends the buffered records plus their marker, or rewrites
   the file (also compaction) as live sessions plus retained batches in
   one committed group.  The compaction test counts the records without
   their marker against the rewrite's length including its marker. *)
let commit t =
  if t.pending_count > 0 then begin
    let live = Hashtbl.length t.live + Queue.length t.batch_q + 1 in
    if Line_log.must_rewrite t.log ~adding:t.pending_count ~live then begin
      let bodies =
        List.map (body t add_session) (sessions t)
        @ List.map (body t add_batch) (batches t)
      in
      Line_log.rewrite t.log
        (bodies @ [ body t add_commit (List.length bodies) ])
    end
    else
      Line_log.append t.log
        (List.rev (body t add_commit t.pending_count :: t.pending));
    t.pending <- [];
    t.pending_count <- 0
  end
