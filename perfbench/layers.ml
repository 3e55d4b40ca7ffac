(* Per-layer replays for traced runs.  Each function times calls into
   one layer's public functions over the workload's own generated
   inputs, in-process, keeping per-call spans in memory; the caller
   writes the spans out at the end of the run. *)

open Seqdiv_stream
open Seqdiv_core
open Common

(* Spans recorded by this run, by layer, in seconds. *)
let spans : (string * float array) list ref = ref []

let keep name a = spans := (name, a) :: !spans

(* Repeat [pass] until at least [min_s] seconds have been spent in it;
   returns (seconds, passes). *)
let repeat ~min_s pass =
  let t0 = now () and passes = ref 0 in
  while !passes = 0 || now () -. t0 < min_s do
    pass ();
    incr passes
  done;
  (now () -. t0, !passes)

let total_symbols contents =
  Array.fold_left (fun acc c -> acc + Array.length c) 0 contents

let min_s = 0.3

(* --- kernel: Flat_automaton.step + state_score ------------------------- *)

let kernel scorer contents =
  let auto = Flat_automaton.automaton scorer in
  let sink = ref 0.0 in
  let dt, passes =
    repeat ~min_s (fun () ->
        Array.iter
          (fun c ->
            let st = ref Flat_automaton.start in
            for i = 0 to Array.length c - 1 do
              st := Flat_automaton.step auto !st c.(i);
              sink := !sink +. Flat_automaton.state_score scorer !st
            done)
          contents)
  in
  ignore (Sys.opaque_identity !sink);
  [ ("kernel.ns_per_sym", 1e9 *. dt /. float_of_int (passes * total_symbols contents)) ]

(* --- Online.feed ------------------------------------------------------- *)

let online ~prefix ?adaptive scorer ~threshold contents =
  let w0 = Gc.minor_words () in
  let dt, passes =
    repeat ~min_s (fun () ->
        Array.iter
          (fun c ->
            let m = Online.of_scorer ?adaptive scorer ~threshold in
            Array.iter (fun s -> ignore (Sys.opaque_identity (Online.feed m s))) c;
            ignore (Online.flush m))
          contents)
  in
  let words = Gc.minor_words () -. w0 in
  let syms = float_of_int (passes * total_symbols contents) in
  [ (prefix ^ ".ns_per_sym", 1e9 *. dt /. syms); (prefix ^ ".words_per_sym", words /. syms) ]

(* --- Quantile sketch and adaptive controller token --------------------- *)

let window_scores scorer c =
  let auto = Flat_automaton.automaton scorer in
  let depth = Flat_automaton.depth auto in
  let st = ref Flat_automaton.start and out = ref [] in
  Array.iteri
    (fun i s ->
      st := Flat_automaton.step auto !st s;
      if i >= depth - 1 then out := Flat_automaton.state_score scorer !st :: !out)
    c;
  Array.of_list (List.rev !out)

let adaptive_layers (config : Adaptive_threshold.config) scorer contents =
  let scores = Array.map (window_scores scorer) contents in
  let nscores = Array.fold_left (fun acc a -> acc + Array.length a) 0 scores in
  let tuples = ref 0 in
  let dt, passes =
    repeat ~min_s (fun () ->
        tuples := 0;
        Array.iter
          (fun a ->
            let q = Quantile.create ~epsilon:config.Adaptive_threshold.epsilon in
            Array.iter (Quantile.observe q) a;
            tuples := !tuples + Quantile.tuples q)
          scores)
  in
  let reps = 20 in
  let bytes = ref 0 and to_string_s = ref 0.0 in
  Array.iter
    (fun a ->
      let c = Adaptive_threshold.create config in
      Array.iter (fun s -> ignore (Adaptive_threshold.step c s)) a;
      let token, dt =
        time (fun () ->
            let tok = ref "" in
            for _ = 1 to reps do
              tok := Adaptive_threshold.to_string c
            done;
            !tok)
      in
      bytes := !bytes + String.length token;
      to_string_s := !to_string_s +. (dt /. float_of_int reps))
    scores;
  let n = float_of_int (Array.length contents) in
  [
    ("quantile.observe_ns", 1e9 *. dt /. float_of_int (passes * nscores));
    ("quantile.tuples", float_of_int !tuples /. n);
    ("adaptive.token_bytes", float_of_int !bytes /. n);
    ("adaptive.to_string_us", 1e6 *. !to_string_s /. n);
  ]

(* --- Session_table.apply ----------------------------------------------- *)

let session_table ?adaptive scorer ~threshold corpus batches =
  let table = Session_table.create ~scorer ~threshold ?adaptive ~shard:0 () in
  let n = Array.length batches in
  let span = Array.make n 0.0 in
  let words = ref 0.0 and resident = ref 0 and syms = ref 0 in
  Array.iteri
    (fun i (b : Corpus.batch) ->
      let events = Corpus.events corpus b in
      let w0 = Gc.minor_words () in
      let t0 = now () in
      ignore (Sys.opaque_identity (Session_table.apply table ~batch_id:b.Corpus.id events));
      span.(i) <- now () -. t0;
      words := !words +. (Gc.minor_words () -. w0);
      syms := !syms + b.Corpus.symbols;
      resident := Stdlib.max !resident (Session_table.bytes_resident table))
    batches;
  keep "session_table.apply" span;
  let replayed = Session_table.batches_replayed table in
  check (replayed = 0)
    "replay guard: the in-process Session_table answered %d batches from its dedup history"
    replayed;
  let total = Array.fold_left ( +. ) 0.0 span and syms = float_of_int !syms in
  [
    ("session_table.ns_per_sym", 1e9 *. total /. syms);
    ("session_table.batch_p50_us", 1e6 *. median span);
    ("session_table.batch_p99_us", 1e6 *. percentile span 99.0);
    ("session_table.words_per_sym", !words /. syms);
    ("session_table.bytes_resident", float_of_int !resident);
    ("session_table.replayed", float_of_int replayed);
  ]

(* --- Shard_journal: record + commit per batch --------------------------- *)

let frame_incident (i : Incident.t) =
  {
    Frame.first_start = i.Incident.first_start;
    last_start = i.Incident.last_start;
    cover_from = i.Incident.cover_from;
    cover_to = i.Incident.cover_to;
    alarms = i.Incident.alarms;
    peak_score = i.Incident.peak_score;
  }

let incident_events session evs =
  List.filter_map
    (function
      | Online.Window_scored _ -> None
      | Online.Incident_opened position -> Some (Frame.Opened { session; position })
      | Online.Incident_closed i ->
          Some (Frame.Closed { session; incident = frame_incident i }))
    evs

(* The journalling half of a journalled shard: monitors advance outside
   the span, then the touched sessions' snapshots and the batch record
   are recorded and committed (one fsync) inside it. *)
let shard_journal ?adaptive scorer ~threshold ~path corpus batches =
  let j = Shard_journal.start ~context:"perfbench journal layer" path in
  let monitors = Hashtbl.create 256 in
  let n = Array.length batches in
  let span = Array.make n 0.0 in
  let size () =
    match Unix.stat path with
    | st -> st.Unix.st_size
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
  in
  let last_size = ref (size ()) and written = ref 0 in
  Array.iteri
    (fun i (b : Corpus.batch) ->
      let touched = ref [] and incidents = ref [] in
      let touch s status =
        touched := (s, status) :: List.remove_assoc s !touched
      in
      Array.iter
        (function
          | Corpus.Data { session; content; off; len } ->
              let m =
                match Hashtbl.find_opt monitors session with
                | Some m -> m
                | None ->
                    let m = Online.of_scorer ?adaptive scorer ~threshold in
                    Hashtbl.replace monitors session m;
                    m
              in
              let c = corpus.Corpus.contents.(content) in
              for k = off to off + len - 1 do
                incidents := List.rev_append (incident_events session (Online.feed m c.(k))) !incidents
              done;
              touch session `Live
          | Corpus.End session ->
              (match Hashtbl.find_opt monitors session with
              | Some m ->
                  incidents := List.rev_append (incident_events session (Online.flush m)) !incidents;
                  Hashtbl.remove monitors session
              | None -> ());
              touch session `Ended)
        b.Corpus.items;
      let t0 = now () in
      List.iter
        (fun (s, status) ->
          match status, Hashtbl.find_opt monitors s with
          | `Ended, _ | `Live, None -> Shard_journal.record_end j ~session:s
          | `Live, Some m -> (
              match Online.snapshot m with
              | None -> ()
              | Some snap ->
                  Shard_journal.record_session j
                    {
                      Shard_journal.js_session = s;
                      js_consumed = snap.Online.snap_consumed;
                      js_state = snap.Online.snap_state;
                      js_open = Option.map frame_incident snap.Online.snap_open;
                      js_adaptive = snap.Online.snap_adaptive;
                    }))
        (List.rev !touched);
      Shard_journal.record_batch j
        {
          Shard_journal.jb_id = b.Corpus.id;
          jb_shard = 0;
          jb_events = b.Corpus.events;
          jb_incidents = List.rev !incidents;
        };
      Shard_journal.commit j;
      span.(i) <- now () -. t0;
      (* Bytes this commit wrote: the growth of an append, or the whole
         file after a compaction rewrote it. *)
      let size' = size () in
      written := !written + (if size' >= !last_size then size' - !last_size else size');
      last_size := size')
    batches;
  keep "shard_journal.commit" span;
  [
    ("shard_journal.commit_p50_us", 1e6 *. median span);
    ("shard_journal.commit_p99_us", 1e6 *. percentile span 99.0);
    ("shard_journal.bytes_per_batch", float_of_int !written /. float_of_int (Stdlib.max 1 n));
    ("shard_journal.compactions", float_of_int (Shard_journal.compactions j));
  ]

(* --- Frame codec ----------------------------------------------------------- *)

let frame_codec corpus batches =
  let requests = Array.map (Corpus.request corpus) batches in
  let syms =
    float_of_int (Array.fold_left (fun acc (b : Corpus.batch) -> acc + b.Corpus.symbols) 0 batches)
  in
  let buf = Buffer.create 65536 in
  let one enc name =
    let bytes = ref 0 and enc_s = ref 0.0 and dec_s = ref 0.0 and words = ref 0.0 in
    Array.iter
      (fun req ->
        Buffer.clear buf;
        let t0 = now () in
        Frame.write_request buf enc req;
        enc_s := !enc_s +. (now () -. t0);
        let wire = Buffer.to_bytes buf in
        bytes := !bytes + Bytes.length wire;
        let w0 = Gc.minor_words () in
        let t1 = now () in
        let r = Frame.reader () in
        Frame.feed_bytes r wire ~pos:0 ~len:(Bytes.length wire);
        (match Frame.next_request r with
        | Some (Frame.Batch _) -> ()
        | _ -> raise (Check_failed "frame layer: batch did not decode"));
        dec_s := !dec_s +. (now () -. t1);
        words := !words +. (Gc.minor_words () -. w0))
      requests;
    [
      ("frame.encode_ns_per_sym." ^ name, 1e9 *. !enc_s /. syms);
      ("frame.decode_ns_per_sym." ^ name, 1e9 *. !dec_s /. syms);
      ("frame.decode_words_per_sym." ^ name, !words /. syms);
      ("frame.bytes_per_sym." ^ name, float_of_int !bytes /. syms);
    ]
  in
  one Frame.Binary "binary" @ one Frame.Ndjson "ndjson"

(* The first batches of [batches] holding at most [max_symbols]. *)
let prefix_by_symbols batches ~max_symbols =
  let acc = ref 0 and k = ref 0 in
  while !k < Array.length batches && !acc < max_symbols do
    acc := !acc + batches.(!k).Corpus.symbols;
    incr k
  done;
  Array.sub batches 0 (Stdlib.max 1 !k)

let write_spans path =
  let oc = open_out path in
  output_string oc
    (to_string
       (Obj
          (List.rev_map
             (fun (name, a) ->
               (name, List (Array.to_list (Array.map (fun s -> Float (1e6 *. s)) a))))
             !spans)));
  output_char oc '\n';
  close_out oc
