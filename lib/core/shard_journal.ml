(* Per-shard serve journal: the session/batch record codec, commit
   groups and in-memory state over Seqdiv_util.Line_log, which owns
   the header, the per-line FNV-1a digest, torn-tail recovery, the
   append fast path, the write-tmp-then-rename rewrite and the
   compaction test.  Commit groups make one flush atomic with respect
   to recovery.  See the .mli for the contract and the format
   rationale. *)

open Seqdiv_stream
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
  mutable pending : string list; (* record bodies, newest first *)
  mutable pending_count : int;
  mutable recovered_sessions : int;
  mutable recovered_batches : int;
}

(* --- record codec ------------------------------------------------------- *)

let incident_token (i : Frame.incident) =
  Printf.sprintf "%d:%d:%d:%d:%d:%016Lx" i.Frame.first_start i.Frame.last_start
    i.Frame.cover_from i.Frame.cover_to i.Frame.alarms
    (Int64.bits_of_float i.Frame.peak_score)

let incident_of_token tok =
  match String.split_on_char ':' tok with
  | [ first; last; cfrom; cto; alarms; bits ] -> (
      match
        ( int_of_string_opt first,
          int_of_string_opt last,
          int_of_string_opt cfrom,
          int_of_string_opt cto,
          int_of_string_opt alarms,
          Int64.of_string_opt ("0x" ^ bits) )
      with
      | Some first_start, Some last_start, Some cover_from, Some cover_to,
        Some alarms, Some bits ->
          Some
            {
              Frame.first_start;
              last_start;
              cover_from;
              cover_to;
              alarms;
              peak_score = Int64.float_of_bits bits;
            }
      | _ -> None)
  | _ -> None

(* Static sessions keep the historical 5-field line; adaptive sessions
   append the controller token as a 6th field (it contains no spaces,
   so the space-split parse sees exactly one extra field). *)
let session_body s =
  let base =
    Printf.sprintf "s %d %d %d %s" s.js_session s.js_consumed s.js_state
      (match s.js_open with None -> "-" | Some i -> incident_token i)
  in
  match s.js_adaptive with
  | None -> base
  | Some token -> base ^ " " ^ token

let ended_body session = Printf.sprintf "e %d" session

let incident_event_token = function
  | Frame.Opened { session; position } -> Printf.sprintf "o:%d:%d" session position
  | Frame.Closed { session; incident } ->
      Printf.sprintf "c:%d:%s" session (incident_token incident)

let incident_event_of_token tok =
  match String.index_opt tok ':' with
  | None -> None
  | Some cut -> (
      let rest = String.sub tok (cut + 1) (String.length tok - cut - 1) in
      match String.sub tok 0 cut with
      | "o" -> (
          match String.split_on_char ':' rest with
          | [ session; position ] -> (
              match (int_of_string_opt session, int_of_string_opt position) with
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
              match (int_of_string_opt session, incident_of_token inc) with
              | Some session, Some incident ->
                  Some (Frame.Closed { session; incident })
              | _ -> None))
      | _ -> None)

let batch_body b =
  Printf.sprintf "b %d %d %d %d%s" b.jb_id b.jb_shard b.jb_events
    (List.length b.jb_incidents)
    (String.concat ""
       (List.map (fun e -> " " ^ incident_event_token e) b.jb_incidents))

let commit_body count = Printf.sprintf "k %d" count

(* A verified body back into its parsed form; None on any damage. *)
let parse_body body =
  match String.split_on_char ' ' body with
  | "s" :: session :: consumed :: state :: open_tok :: (([] | [ _ ]) as rest)
    -> (
      let js_adaptive =
        match rest with [ adaptive ] when adaptive <> "" -> Some adaptive | _ -> None
      in
      match
        ( int_of_string_opt session,
          int_of_string_opt consumed,
          int_of_string_opt state,
          if open_tok = "-" then Some None
          else Option.map Option.some (incident_of_token open_tok) )
      with
      | Some js_session, Some js_consumed, Some js_state, Some js_open ->
          Some
            (`Record
              (Session { js_session; js_consumed; js_state; js_open; js_adaptive }))
      | _ -> None)
  | [ "e"; session ] ->
      Option.map (fun s -> `Record (Ended s)) (int_of_string_opt session)
  | "b" :: id :: shard :: events :: count :: toks -> (
      match
        ( int_of_string_opt id,
          int_of_string_opt shard,
          int_of_string_opt events,
          int_of_string_opt count )
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
  | [ "k"; count ] -> Option.map (fun c -> `Commit c) (int_of_string_opt count)
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

let push_pending t body record =
  apply_record t record;
  t.pending <- body :: t.pending;
  t.pending_count <- t.pending_count + 1

let record_session t s = push_pending t (session_body s) (Session s)
let record_end t ~session = push_pending t (ended_body session) (Ended session)
let record_batch t b = push_pending t (batch_body b) (Batch b)

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
        List.map session_body (sessions t) @ List.map batch_body (batches t)
      in
      Line_log.rewrite t.log (bodies @ [ commit_body (List.length bodies) ])
    end
    else
      Line_log.append t.log
        (List.rev (commit_body t.pending_count :: t.pending));
    t.pending <- [];
    t.pending_count <- 0
  end
