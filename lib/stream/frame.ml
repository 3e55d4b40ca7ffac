(* Wire framing for the serve layer: a pure two-format codec (binary
   length-prefixed frames and ndjson lines) with an incremental
   per-connection reader that sniffs the format from the first byte.
   See frame.mli for the wire layout. *)

module Ascii = Seqdiv_util.Ascii

type event =
  | Data of { session : int; symbols : int array }
  | End_of_session of { session : int }

type incident = {
  first_start : int;
  last_start : int;
  cover_from : int;
  cover_to : int;
  alarms : int;
  peak_score : float;
}

type incident_event =
  | Opened of { session : int; position : int }
  | Closed of { session : int; incident : incident }

type shard_stats = {
  shard : int;
  sessions_resident : int;
  events : int;
  symbols : int;
  batches : int;
  rejected : int;
  queue_depth : int;
  bytes_resident : int;
  busy_ns : int;
  p50_batch_ns : int;
  p99_batch_ns : int;
  restarts : int;
  alive : bool;
  degraded : bool;
  retry_after_ms : int;
  windows : int;
  alarms : int;
  threshold : float;
}

type health = {
  shards : shard_stats list;
  connections : int;
  evictions : int;
  draining : bool;
}

type request =
  | Batch of { id : int; events : event list }
  | Stats_request
  | Health_request
  | Drain_request
  | Quit

type response =
  | Ack of {
      id : int;
      shard : int;
      events : int;
      incidents : incident_event list;
    }
  | Rejected of { id : int; retry_after_ms : int }
  | Failed of { id : int; shard : int; events : int; reason : string }
  | Stats of shard_stats list
  | Health of health
  | Drained of { batches : int }
  | Error_msg of string

(* --- session sharding --------------------------------------------------- *)

(* SplitMix64 finaliser: full-avalanche mixing so consecutive session
   ids spread evenly across shards. *)
let shard_of_session ~shards id =
  if shards <= 0 then
    (* lint: allow partiality — documented precondition *)
    invalid_arg (Printf.sprintf "Frame.shard_of_session: shards=%d" shards);
  let z = Int64.add (Int64.of_int id) 0x9e3779b97f4a7c15L in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.rem (Int64.logand z Int64.max_int) (Int64.of_int shards))

(* --- validation --------------------------------------------------------- *)

let check_symbol s =
  if s < 0 || s > 254 then
    (* lint: allow partiality — documented precondition *)
    invalid_arg (Printf.sprintf "Frame: symbol %d out of range 0..254" s)

let check_nonneg name v =
  if v < 0 then
    (* lint: allow partiality — documented precondition *)
    invalid_arg (Printf.sprintf "Frame: negative %s: %d" name v)

let check_batch id events =
  check_nonneg "batch id" id;
  if events = [] then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Frame: a batch must carry at least one event";
  List.iter
    (function
      | Data { session; symbols } ->
          check_nonneg "session id" session;
          Array.iter check_symbol symbols
      | End_of_session { session } -> check_nonneg "session id" session)
    events

(* --- binary encoding ---------------------------------------------------- *)

type encoding = Binary | Ndjson

let binary_magic = '\xab'
let max_payload = 1 lsl 26 (* 64 MiB: no hostile length can force the
                              reader into an absurd allocation *)

let add_i64 b v = Buffer.add_int64_le b (Int64.of_int v)

let add_payload out payload =
  let n = Buffer.length payload in
  if n > max_payload then
    (* lint: allow partiality — documented precondition *)
    invalid_arg (Printf.sprintf "Frame: payload %d exceeds %d bytes" n
                   max_payload);
  Buffer.add_char out binary_magic;
  Buffer.add_int32_le out (Int32.of_int n);
  Buffer.add_buffer out payload

let add_string_field b s =
  add_i64 b (String.length s);
  Buffer.add_string b s

let binary_of_request out = function
  | Batch { id; events } ->
      let b = Buffer.create 256 in
      Buffer.add_char b 'B';
      add_i64 b id;
      add_i64 b (List.length events);
      List.iter
        (function
          | Data { session; symbols } ->
              Buffer.add_char b 'd';
              add_i64 b session;
              add_i64 b (Array.length symbols);
              Array.iter (fun s -> Buffer.add_char b (Char.chr s)) symbols
          | End_of_session { session } ->
              Buffer.add_char b 'e';
              add_i64 b session)
        events;
      add_payload out b
  | Stats_request ->
      let b = Buffer.create 1 in
      Buffer.add_char b 'S';
      add_payload out b
  | Health_request ->
      let b = Buffer.create 1 in
      Buffer.add_char b 'H';
      add_payload out b
  | Drain_request ->
      let b = Buffer.create 1 in
      Buffer.add_char b 'D';
      add_payload out b
  | Quit ->
      let b = Buffer.create 1 in
      Buffer.add_char b 'Q';
      add_payload out b

let add_incident_event b = function
  | Opened { session; position } ->
      Buffer.add_char b 'o';
      add_i64 b session;
      add_i64 b position
  | Closed { session; incident } ->
      Buffer.add_char b 'c';
      add_i64 b session;
      add_i64 b incident.first_start;
      add_i64 b incident.last_start;
      add_i64 b incident.cover_from;
      add_i64 b incident.cover_to;
      add_i64 b incident.alarms;
      Buffer.add_int64_le b (Int64.bits_of_float incident.peak_score)

let add_shard_stats b s =
  add_i64 b s.shard;
  add_i64 b s.sessions_resident;
  add_i64 b s.events;
  add_i64 b s.symbols;
  add_i64 b s.batches;
  add_i64 b s.rejected;
  add_i64 b s.queue_depth;
  add_i64 b s.bytes_resident;
  add_i64 b s.busy_ns;
  add_i64 b s.p50_batch_ns;
  add_i64 b s.p99_batch_ns;
  add_i64 b s.restarts;
  add_i64 b (if s.alive then 1 else 0);
  add_i64 b (if s.degraded then 1 else 0);
  add_i64 b s.retry_after_ms;
  add_i64 b s.windows;
  add_i64 b s.alarms;
  Buffer.add_int64_le b (Int64.bits_of_float s.threshold)

let binary_of_response out = function
  | Ack { id; shard; events; incidents } ->
      let b = Buffer.create 64 in
      Buffer.add_char b 'A';
      add_i64 b id;
      add_i64 b shard;
      add_i64 b events;
      add_i64 b (List.length incidents);
      List.iter (add_incident_event b) incidents;
      add_payload out b
  | Rejected { id; retry_after_ms } ->
      let b = Buffer.create 24 in
      Buffer.add_char b 'R';
      add_i64 b id;
      add_i64 b retry_after_ms;
      add_payload out b
  | Failed { id; shard; events; reason } ->
      let b = Buffer.create 64 in
      Buffer.add_char b 'F';
      add_i64 b id;
      add_i64 b shard;
      add_i64 b events;
      add_string_field b reason;
      add_payload out b
  | Stats shards ->
      let b = Buffer.create 256 in
      Buffer.add_char b 'T';
      add_i64 b (List.length shards);
      List.iter (add_shard_stats b) shards;
      add_payload out b
  | Health { shards; connections; evictions; draining } ->
      let b = Buffer.create 256 in
      Buffer.add_char b 'h';
      add_i64 b connections;
      add_i64 b evictions;
      add_i64 b (if draining then 1 else 0);
      add_i64 b (List.length shards);
      List.iter (add_shard_stats b) shards;
      add_payload out b
  | Drained { batches } ->
      let b = Buffer.create 16 in
      Buffer.add_char b 'd';
      add_i64 b batches;
      add_payload out b
  | Error_msg message ->
      let b = Buffer.create 64 in
      Buffer.add_char b 'E';
      add_string_field b message;
      add_payload out b

(* --- binary decoding ---------------------------------------------------- *)

(* A cursor over one complete payload; every read is bounds-checked so
   hostile lengths fail as Parse_error, not as an exception from
   Bytes. *)
type cursor = { data : bytes; mutable pos : int; limit : int }

let cursor_fail fmt = Parse_error.fail fmt

let need c n =
  if c.limit - c.pos < n then
    cursor_fail "Frame: truncated binary payload (need %d bytes at %d)" n c.pos

let read_char c =
  need c 1;
  let ch = Bytes.get c.data c.pos in
  c.pos <- c.pos + 1;
  ch

let read_i64 c =
  need c 8;
  let v = Bytes.get_int64_le c.data c.pos in
  c.pos <- c.pos + 8;
  Int64.to_int v

let read_nonneg c name =
  let v = read_i64 c in
  if v < 0 then cursor_fail "Frame: negative %s: %d" name v;
  v

let read_count c name ~min_item_bytes =
  let v = read_nonneg c name in
  if min_item_bytes > 0 && v > (c.limit - c.pos) / min_item_bytes then
    cursor_fail "Frame: %s %d larger than the remaining payload" name v;
  v

let read_string c name =
  let n = read_count c name ~min_item_bytes:1 in
  let s = Bytes.sub_string c.data c.pos n in
  c.pos <- c.pos + n;
  s

let read_symbols c n =
  need c n;
  let a =
    Array.init n (fun i ->
        let v = Char.code (Bytes.get c.data (c.pos + i)) in
        if v > 254 then cursor_fail "Frame: symbol byte %d out of range" v;
        v)
  in
  c.pos <- c.pos + n;
  a

let read_event c =
  match read_char c with
  | 'd' ->
      let session = read_nonneg c "session id" in
      let n = read_count c "symbol count" ~min_item_bytes:1 in
      Data { session; symbols = read_symbols c n }
  | 'e' -> End_of_session { session = read_nonneg c "session id" }
  | ch -> cursor_fail "Frame: unknown event tag %C" ch

let finish c v =
  if c.pos <> c.limit then
    cursor_fail "Frame: %d trailing payload bytes" (c.limit - c.pos);
  v

let decode_binary_request c =
  match read_char c with
  | 'B' ->
      let id = read_nonneg c "batch id" in
      let n = read_count c "event count" ~min_item_bytes:9 in
      if n = 0 then cursor_fail "Frame: a batch must carry at least one event";
      finish c (Batch { id; events = List.init n (fun _ -> read_event c) })
  | 'S' -> finish c Stats_request
  | 'H' -> finish c Health_request
  | 'D' -> finish c Drain_request
  | 'Q' -> finish c Quit
  | ch -> cursor_fail "Frame: unknown request tag %C" ch

let read_incident_event c =
  match read_char c with
  | 'o' ->
      let session = read_nonneg c "session id" in
      Opened { session; position = read_nonneg c "position" }
  | 'c' ->
      let session = read_nonneg c "session id" in
      let first_start = read_i64 c in
      let last_start = read_i64 c in
      let cover_from = read_i64 c in
      let cover_to = read_i64 c in
      let alarms = read_nonneg c "alarm count" in
      need c 8;
      let bits = Bytes.get_int64_le c.data c.pos in
      c.pos <- c.pos + 8;
      Closed
        {
          session;
          incident =
            {
              first_start;
              last_start;
              cover_from;
              cover_to;
              alarms;
              peak_score = Int64.float_of_bits bits;
            };
        }
  | ch -> cursor_fail "Frame: unknown incident tag %C" ch

let read_bool c name =
  match read_i64 c with
  | 0 -> false
  | 1 -> true
  | v -> cursor_fail "Frame: %s flag %d is not 0 or 1" name v

let read_float_bits c =
  need c 8;
  let bits = Bytes.get_int64_le c.data c.pos in
  c.pos <- c.pos + 8;
  Int64.float_of_bits bits

(* A binary shard_stats row: 18 eight-byte fields. *)
let shard_stats_bytes = 18 * 8

let read_shard_stats c =
  let shard = read_i64 c in
  let sessions_resident = read_nonneg c "sessions_resident" in
  let events = read_nonneg c "events" in
  let symbols = read_nonneg c "symbols" in
  let batches = read_nonneg c "batches" in
  let rejected = read_nonneg c "rejected" in
  let queue_depth = read_nonneg c "queue_depth" in
  let bytes_resident = read_nonneg c "bytes_resident" in
  let busy_ns = read_nonneg c "busy_ns" in
  let p50_batch_ns = read_nonneg c "p50_batch_ns" in
  let p99_batch_ns = read_nonneg c "p99_batch_ns" in
  let restarts = read_nonneg c "restarts" in
  let alive = read_bool c "alive" in
  let degraded = read_bool c "degraded" in
  let retry_after_ms = read_nonneg c "retry_after_ms" in
  let windows = read_nonneg c "windows" in
  let alarms = read_nonneg c "alarms" in
  let threshold = read_float_bits c in
  {
    shard;
    sessions_resident;
    events;
    symbols;
    batches;
    rejected;
    queue_depth;
    bytes_resident;
    busy_ns;
    p50_batch_ns;
    p99_batch_ns;
    restarts;
    alive;
    degraded;
    retry_after_ms;
    windows;
    alarms;
    threshold;
  }

let decode_binary_response c =
  match read_char c with
  | 'A' ->
      let id = read_nonneg c "batch id" in
      let shard = read_i64 c in
      let events = read_nonneg c "event count" in
      let n = read_count c "incident count" ~min_item_bytes:17 in
      finish c
        (Ack
           { id; shard; events;
             incidents = List.init n (fun _ -> read_incident_event c) })
  | 'R' ->
      let id = read_nonneg c "batch id" in
      finish c (Rejected { id; retry_after_ms = read_nonneg c "retry-after" })
  | 'F' ->
      let id = read_nonneg c "batch id" in
      let shard = read_i64 c in
      let events = read_nonneg c "event count" in
      finish c
        (Failed { id; shard; events; reason = read_string c "reason length" })
  | 'T' ->
      let n = read_count c "shard count" ~min_item_bytes:shard_stats_bytes in
      finish c (Stats (List.init n (fun _ -> read_shard_stats c)))
  | 'h' ->
      let connections = read_nonneg c "connections" in
      let evictions = read_nonneg c "evictions" in
      let draining = read_bool c "draining" in
      let n = read_count c "shard count" ~min_item_bytes:shard_stats_bytes in
      finish c
        (Health
           {
             shards = List.init n (fun _ -> read_shard_stats c);
             connections;
             evictions;
             draining;
           })
  | 'd' -> finish c (Drained { batches = read_nonneg c "batch count" })
  | 'E' -> finish c (Error_msg (read_string c "message length"))
  | ch -> cursor_fail "Frame: unknown response tag %C" ch

(* Field accessors over a decoded object. *)

let obj_fields name = function
  | Json.Obj fields -> fields
  | _ -> Parse_error.fail "Frame: ndjson: %s is not an object" name

let field fields k =
  match List.assoc_opt k fields with
  | Some v -> v
  | None -> Parse_error.fail "Frame: ndjson: missing field %S" k

let int_field fields k =
  match field fields k with
  | Json.Int v -> v
  | _ -> Parse_error.fail "Frame: ndjson: field %S is not an integer" k

let str_field fields k =
  match field fields k with
  | Json.String v -> v
  | _ -> Parse_error.fail "Frame: ndjson: field %S is not a string" k

let list_field fields k =
  match field fields k with
  | Json.List v -> v
  | _ -> Parse_error.fail "Frame: ndjson: field %S is not a list" k

let bool_field fields k =
  match field fields k with
  | Json.Bool v -> v
  | _ -> Parse_error.fail "Frame: ndjson: field %S is not a boolean" k

let nonneg_field fields k =
  let v = int_field fields k in
  if v < 0 then Parse_error.fail "Frame: ndjson: negative field %S: %d" k v;
  v

let bits_field fields k =
  let s = str_field fields k in
  if String.length s <> 16 then
    Parse_error.fail "Frame: ndjson: field %S is not 16 hex digits" k;
  match Int64.of_string_opt ("0x" ^ s) with
  | Some bits -> Int64.float_of_bits bits
  | None -> Parse_error.fail "Frame: ndjson: field %S is not hex" k

(* --- ndjson encoding ---------------------------------------------------- *)

let hex_bits f =
  let b = Buffer.create 16 in
  Ascii.add_float_bits b f;
  Buffer.contents b

let json_of_event = function
  | Data { session; symbols } ->
      Json.Obj
        [
          ("type", Json.String "data");
          ("session", Json.Int session);
          ("symbols", Json.List (Array.to_list (Array.map (fun s -> Json.Int s) symbols)));
        ]
  | End_of_session { session } ->
      Json.Obj [ ("type", Json.String "end"); ("session", Json.Int session) ]

let json_of_request = function
  | Batch { id; events } ->
      Json.Obj
        [
          ("type", Json.String "batch");
          ("id", Json.Int id);
          ("events", Json.List (List.map json_of_event events));
        ]
  | Stats_request -> Json.Obj [ ("type", Json.String "stats") ]
  | Health_request -> Json.Obj [ ("type", Json.String "health") ]
  | Drain_request -> Json.Obj [ ("type", Json.String "drain") ]
  | Quit -> Json.Obj [ ("type", Json.String "quit") ]

let json_of_incident_event = function
  | Opened { session; position } ->
      Json.Obj
        [
          ("type", Json.String "opened");
          ("session", Json.Int session);
          ("position", Json.Int position);
        ]
  | Closed { session; incident = i } ->
      Json.Obj
        [
          ("type", Json.String "closed");
          ("session", Json.Int session);
          ("first_start", Json.Int i.first_start);
          ("last_start", Json.Int i.last_start);
          ("cover_from", Json.Int i.cover_from);
          ("cover_to", Json.Int i.cover_to);
          ("alarms", Json.Int i.alarms);
          (* bits are authoritative (lossless); the float field rides
             along for human readers *)
          ("peak_score_bits", Json.String (hex_bits i.peak_score));
          ("peak_score", Json.Float i.peak_score);
        ]

let json_of_shard_stats s =
  Json.Obj
    [
      ("shard", Json.Int s.shard);
      ("sessions_resident", Json.Int s.sessions_resident);
      ("events", Json.Int s.events);
      ("symbols", Json.Int s.symbols);
      ("batches", Json.Int s.batches);
      ("rejected", Json.Int s.rejected);
      ("queue_depth", Json.Int s.queue_depth);
      ("bytes_resident", Json.Int s.bytes_resident);
      ("busy_ns", Json.Int s.busy_ns);
      ("p50_batch_ns", Json.Int s.p50_batch_ns);
      ("p99_batch_ns", Json.Int s.p99_batch_ns);
      ("restarts", Json.Int s.restarts);
      ("alive", Json.Bool s.alive);
      ("degraded", Json.Bool s.degraded);
      ("retry_after_ms", Json.Int s.retry_after_ms);
      ("windows", Json.Int s.windows);
      ("alarms", Json.Int s.alarms);
      (* bits are authoritative (lossless); the float field rides
         along for human readers *)
      ("threshold_bits", Json.String (hex_bits s.threshold));
      ("threshold", Json.Float s.threshold);
    ]

let json_of_response = function
  | Ack { id; shard; events; incidents } ->
      Json.Obj
        [
          ("type", Json.String "ack");
          ("id", Json.Int id);
          ("shard", Json.Int shard);
          ("events", Json.Int events);
          ("incidents", Json.List (List.map json_of_incident_event incidents));
        ]
  | Rejected { id; retry_after_ms } ->
      Json.Obj
        [
          ("type", Json.String "rejected");
          ("id", Json.Int id);
          ("retry_after_ms", Json.Int retry_after_ms);
        ]
  | Failed { id; shard; events; reason } ->
      Json.Obj
        [
          ("type", Json.String "failed");
          ("id", Json.Int id);
          ("shard", Json.Int shard);
          ("events", Json.Int events);
          ("reason", Json.String reason);
        ]
  | Stats shards ->
      Json.Obj
        [
          ("type", Json.String "stats");
          ("shards", Json.List (List.map json_of_shard_stats shards));
        ]
  | Health { shards; connections; evictions; draining } ->
      Json.Obj
        [
          ("type", Json.String "health");
          ("connections", Json.Int connections);
          ("evictions", Json.Int evictions);
          ("draining", Json.Bool draining);
          ("shards", Json.List (List.map json_of_shard_stats shards));
        ]
  | Drained { batches } ->
      Json.Obj [ ("type", Json.String "drained"); ("batches", Json.Int batches) ]
  | Error_msg message ->
      Json.Obj [ ("type", Json.String "error"); ("message", Json.String message) ]

let add_json_line out v =
  Json.print out v;
  Buffer.add_char out '\n'

(* --- ndjson decoding ---------------------------------------------------- *)

let event_of_json v =
  let fields = obj_fields "event" v in
  match str_field fields "type" with
  | "data" ->
      let symbols =
        list_field fields "symbols"
        |> List.map (function
             | Json.Int s when s >= 0 && s <= 254 -> s
             | Json.Int s ->
                 Parse_error.fail "Frame: ndjson: symbol %d out of range" s
             | _ -> Parse_error.fail "Frame: ndjson: symbol is not an integer")
        |> Array.of_list
      in
      Data { session = nonneg_field fields "session"; symbols }
  | "end" -> End_of_session { session = nonneg_field fields "session" }
  | t -> Parse_error.fail "Frame: ndjson: unknown event type %S" t

let request_of_json v =
  let fields = obj_fields "request" v in
  match str_field fields "type" with
  | "batch" ->
      let events = List.map event_of_json (list_field fields "events") in
      if events = [] then
        Parse_error.fail "Frame: a batch must carry at least one event";
      Batch { id = nonneg_field fields "id"; events }
  | "stats" -> Stats_request
  | "health" -> Health_request
  | "drain" -> Drain_request
  | "quit" -> Quit
  | t -> Parse_error.fail "Frame: ndjson: unknown request type %S" t

let incident_event_of_json v =
  let fields = obj_fields "incident event" v in
  match str_field fields "type" with
  | "opened" ->
      Opened
        {
          session = nonneg_field fields "session";
          position = nonneg_field fields "position";
        }
  | "closed" ->
      Closed
        {
          session = nonneg_field fields "session";
          incident =
            {
              first_start = int_field fields "first_start";
              last_start = int_field fields "last_start";
              cover_from = int_field fields "cover_from";
              cover_to = int_field fields "cover_to";
              alarms = nonneg_field fields "alarms";
              peak_score = bits_field fields "peak_score_bits";
            };
        }
  | t -> Parse_error.fail "Frame: ndjson: unknown incident type %S" t

let shard_stats_of_json v =
  let fields = obj_fields "shard stats" v in
  {
    shard = int_field fields "shard";
    sessions_resident = nonneg_field fields "sessions_resident";
    events = nonneg_field fields "events";
    symbols = nonneg_field fields "symbols";
    batches = nonneg_field fields "batches";
    rejected = nonneg_field fields "rejected";
    queue_depth = nonneg_field fields "queue_depth";
    bytes_resident = nonneg_field fields "bytes_resident";
    busy_ns = nonneg_field fields "busy_ns";
    p50_batch_ns = nonneg_field fields "p50_batch_ns";
    p99_batch_ns = nonneg_field fields "p99_batch_ns";
    restarts = nonneg_field fields "restarts";
    alive = bool_field fields "alive";
    degraded = bool_field fields "degraded";
    retry_after_ms = nonneg_field fields "retry_after_ms";
    windows = nonneg_field fields "windows";
    alarms = nonneg_field fields "alarms";
    threshold = bits_field fields "threshold_bits";
  }

let response_of_json v =
  let fields = obj_fields "response" v in
  match str_field fields "type" with
  | "ack" ->
      Ack
        {
          id = nonneg_field fields "id";
          shard = int_field fields "shard";
          events = nonneg_field fields "events";
          incidents =
            List.map incident_event_of_json (list_field fields "incidents");
        }
  | "rejected" ->
      Rejected
        {
          id = nonneg_field fields "id";
          retry_after_ms = nonneg_field fields "retry_after_ms";
        }
  | "failed" ->
      Failed
        {
          id = nonneg_field fields "id";
          shard = int_field fields "shard";
          events = nonneg_field fields "events";
          reason = str_field fields "reason";
        }
  | "stats" -> Stats (List.map shard_stats_of_json (list_field fields "shards"))
  | "health" ->
      Health
        {
          shards = List.map shard_stats_of_json (list_field fields "shards");
          connections = nonneg_field fields "connections";
          evictions = nonneg_field fields "evictions";
          draining = bool_field fields "draining";
        }
  | "drained" -> Drained { batches = nonneg_field fields "batches" }
  | "error" -> Error_msg (str_field fields "message")
  | t -> Parse_error.fail "Frame: ndjson: unknown response type %S" t

(* --- public encoders ---------------------------------------------------- *)

let write_request out encoding request =
  (match request with
  | Batch { id; events } -> check_batch id events
  | Stats_request | Health_request | Drain_request | Quit -> ());
  match encoding with
  | Binary -> binary_of_request out request
  | Ndjson -> add_json_line out (json_of_request request)

let write_response out encoding response =
  match encoding with
  | Binary -> binary_of_response out response
  | Ndjson -> add_json_line out (json_of_response response)

(* --- incremental reader ------------------------------------------------- *)

type reader = {
  mutable buf : bytes;
  mutable start : int;  (* first unconsumed byte *)
  mutable fill : int;  (* end of valid data *)
  mutable enc : encoding option;
}

let reader () = { buf = Bytes.create 4096; start = 0; fill = 0; enc = None }

let available r = r.fill - r.start

let feed_bytes r src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Frame.feed_bytes: bad slice";
  let cap = Bytes.length r.buf in
  if r.fill + len > cap then begin
    let live = available r in
    if live + len <= cap && r.start > 0 then begin
      (* compaction is enough *)
      Bytes.blit r.buf r.start r.buf 0 live;
      r.start <- 0;
      r.fill <- live
    end
    else begin
      let cap' = max (live + len) (cap * 2) in
      let buf' = Bytes.create cap' in
      Bytes.blit r.buf r.start buf' 0 live;
      r.buf <- buf';
      r.start <- 0;
      r.fill <- live
    end
  end;
  Bytes.blit src pos r.buf r.fill len;
  r.fill <- r.fill + len

let sniff r =
  match r.enc with
  | Some e -> Some e
  | None ->
      if available r = 0 then None
      else begin
        let e =
          if Bytes.get r.buf r.start = binary_magic then Binary else Ndjson
        in
        r.enc <- Some e;
        Some e
      end

let reader_encoding r = sniff r

(* One complete binary payload, or None for more bytes. *)
let next_binary_payload r =
  if available r < 5 then None
  else begin
    if Bytes.get r.buf r.start <> binary_magic then
      Parse_error.fail "Frame: bad frame magic 0x%02x"
        (Char.code (Bytes.get r.buf r.start));
    let len =
      Int32.to_int (Bytes.get_int32_le r.buf (r.start + 1)) land 0xffffffff
    in
    if len > max_payload then
      Parse_error.fail "Frame: frame length %d exceeds %d" len max_payload;
    if available r < 5 + len then None
    else begin
      let c = { data = r.buf; pos = r.start + 5; limit = r.start + 5 + len } in
      r.start <- r.start + 5 + len;
      Some c
    end
  end

(* One complete ndjson line (sans newline), skipping blank lines. *)
let rec next_line r =
  match Bytes.index_from_opt r.buf r.start '\n' with
  | Some i when i < r.fill ->
      let line = Bytes.sub_string r.buf r.start (i - r.start) in
      r.start <- i + 1;
      let line =
        if String.length line > 0 && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      if String.for_all (fun c -> c = ' ' || c = '\t') line then next_line r
      else Some line
  | Some _ | None ->
      if available r > max_payload then
        Parse_error.fail "Frame: ndjson line exceeds %d bytes" max_payload;
      None

let next_frame r ~binary ~ndjson =
  match sniff r with
  | None -> None
  | Some Binary -> Option.map binary (next_binary_payload r)
  | Some Ndjson -> Option.map (fun l -> ndjson (Json.parse l)) (next_line r)

let next_request r =
  next_frame r ~binary:decode_binary_request ~ndjson:request_of_json

let next_response r =
  next_frame r ~binary:decode_binary_response ~ndjson:response_of_json

(* --- incident-log rendering --------------------------------------------- *)

let render_incident_event ev =
  let b = Buffer.create 96 in
  Buffer.add_string b "session ";
  (match ev with
  | Opened { session; position } ->
      Ascii.add_int b session;
      Buffer.add_string b " opened ";
      Ascii.add_int b position
  | Closed { session; incident = i } ->
      Ascii.add_int b session;
      Buffer.add_string b " closed first=";
      Ascii.add_int b i.first_start;
      Buffer.add_string b " last=";
      Ascii.add_int b i.last_start;
      Buffer.add_string b " cover=";
      Ascii.add_int b i.cover_from;
      Buffer.add_string b "..";
      Ascii.add_int b i.cover_to;
      Buffer.add_string b " alarms=";
      Ascii.add_int b i.alarms;
      Buffer.add_string b " peak=";
      Ascii.add_float_bits b i.peak_score);
  Buffer.contents b

(* --- health rendering ---------------------------------------------------- *)

let render_health h =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "serve: connections=%d evictions=%d draining=%b\n"
       h.connections h.evictions h.draining);
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf
           "shard %d: %s restarts=%d queue_depth=%d retry_after_ms=%d \
            windows=%d alarms=%d threshold=%h\n"
           s.shard
           (if s.degraded then "DEGRADED"
            else if s.alive then "alive"
            else "dead")
           s.restarts s.queue_depth s.retry_after_ms s.windows s.alarms
           s.threshold))
    h.shards;
  Buffer.contents b
