(* The load generator: starts `seqdiv serve` processes, times their
   start-up, and drives pre-encoded batch frames over one connection in
   a closed loop (fixed in-flight window) or an open loop (sends
   scheduled from due times).  Single-domain: one [select] loop sends
   and receives, so every ack is timestamped as it is read. *)

open Seqdiv_stream
open Common

(* --- server processes ------------------------------------------------- *)

type server = { pid : int; sock : string }

(* Servers this process started and has not yet reaped: killed and
   waited for on any exit path. *)
let live : int list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  live := List.filter (fun p -> p <> pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

let () =
  at_exit kill_all;
  (* A benchmark stopped from outside still stops its servers. *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ]

let start_server ~bin ~args ~sock ~log =
  (try Sys.remove sock with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let logfd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let argv = Array.of_list ((bin :: "serve" :: "--socket" :: sock :: args)) in
  let pid = Unix.create_process bin argv devnull logfd logfd in
  Unix.close devnull;
  Unix.close logfd;
  live := pid :: !live;
  { pid; sock }

(* --- one client connection -------------------------------------------- *)

type link = { fd : Unix.file_descr; decoder : Frame.reader; rbuf : Bytes.t }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some { fd; decoder = Frame.reader (); rbuf = Bytes.create 65536 }
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      None

let close link = try Unix.close link.fd with Unix.Unix_error _ -> ()

let encode request =
  let b = Buffer.create 256 in
  Frame.write_request b Frame.Binary request;
  Buffer.to_bytes b

let lost () = raise (Check_failed "server closed the connection")

let write_all link bytes =
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    match Unix.write link.fd bytes !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> lost ()
  done

(* Read once (waiting at most [timeout] seconds) and hand every
   complete response to [f] with the read's timestamp.  [false] on
   timeout. *)
let pump link ~timeout f =
  match Unix.select [ link.fd ] [] [] timeout with
  | [], _, _ -> false
  | _ ->
      let n =
        try Unix.read link.fd link.rbuf 0 (Bytes.length link.rbuf)
        with Unix.Unix_error (Unix.ECONNRESET, _, _) -> 0
      in
      if n = 0 then lost ();
      let t = now () in
      Frame.feed_bytes link.decoder link.rbuf ~pos:0 ~len:n;
      let rec drain () =
        match Frame.next_response link.decoder with
        | Some r ->
            f t r;
            drain ()
        | None -> ()
      in
      drain ();
      true

let ack_timeout_s = 30.0

(* Send one request and wait for the first response [pick] accepts. *)
let request link req pick =
  write_all link (encode req);
  let result = ref None in
  while !result = None do
    if
      not
        (pump link ~timeout:ack_timeout_s (fun _ r ->
             if !result = None then result := pick r))
    then raise (Check_failed "no answer to a control request")
  done;
  Option.get !result

let stats link =
  request link Frame.Stats_request (function
    | Frame.Stats s -> Some s
    | _ -> None)

(* Start a server and time it from process creation until it answers a
   [Health_request]; the returned link stays open for the run. *)
let start_and_wait ~bin ~args ~sock ~log =
  let t0 = now () in
  let server = start_server ~bin ~args ~sock ~log in
  let rec attempt () =
    match connect sock with
    | Some link -> link
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] server.pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (fun p -> p <> server.pid) !live;
            raise (Check_failed ("seqdiv serve exited at start-up; see " ^ log)));
        if now () -. t0 > 60.0 then
          raise (Check_failed "seqdiv serve did not come up within 60 s");
        Unix.sleepf 0.001;
        attempt ()
  in
  let link = attempt () in
  ignore
    (request link Frame.Health_request (function
      | Frame.Health h -> Some h
      | _ -> None));
  (server, link, now () -. t0)

let stop server link =
  (try write_all link (encode Frame.Quit) with Unix.Unix_error _ -> ());
  close link;
  let deadline = now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] server.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        (try Unix.kill server.pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap server.pid
    | _ -> live := List.filter (fun p -> p <> server.pid) !live
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  (try Sys.remove server.sock with Sys_error _ -> ())

(* --- batch tracking ------------------------------------------------------ *)

type batch = {
  b_id : int;
  b_frame : Bytes.t;  (* encoded before any clock starts *)
  b_events : int;
  b_symbols : int;
}

type tracker = {
  batches : batch array;
  index : (int, int) Hashtbl.t;  (* batch id -> positions *)
  acked : int array;  (* events acked so far, per batch *)
  done_at : float array;  (* when the last slice was acked *)
  mutable completed : int;
  mutable failed : int;  (* Failed responses *)
  incidents : (int, Frame.incident_event list) Hashtbl.t;  (* newest first *)
  mutable samples : (float * Frame.shard_stats list) list;  (* newest first *)
}

let tracker batches =
  let n = Array.length batches in
  let index = Hashtbl.create (2 * n + 1) in
  Array.iteri (fun i b -> Hashtbl.add index b.b_id i) batches;
  {
    batches;
    index;
    acked = Array.make n 0;
    done_at = Array.make n Float.nan;
    completed = 0;
    failed = 0;
    incidents = Hashtbl.create 1024;
    samples = [];
  }

(* The batch a response for [id] answers: the earliest one with that id
   still waiting for acks.  Ids repeat only under fault injection. *)
let position tr id =
  List.find_opt (fun i -> Float.is_nan tr.done_at.(i)) (List.rev (Hashtbl.find_all tr.index id))

let session_of = function
  | Frame.Opened { session; _ } | Frame.Closed { session; _ } -> session

(* Credit [events] acked (or failed) events to batch [id]; the batch is
   done, at time [t], once all its events are answered. *)
let credit tr id events t =
  match position tr id with
  | None -> raise (Check_failed (Printf.sprintf "response for unknown batch %d" id))
  | Some i ->
      tr.acked.(i) <- tr.acked.(i) + events;
      if tr.acked.(i) >= tr.batches.(i).b_events then begin
        tr.done_at.(i) <- t;
        tr.completed <- tr.completed + 1
      end

(* Account one response.  A [Rejected] batch fails the run: resending it
   behind batches already in flight would apply its sessions' events out
   of order, and the incident log could no longer match. *)
let handle tr t = function
  | Frame.Ack { id; events; incidents; _ } ->
      List.iter
        (fun ev ->
          let s = session_of ev in
          Hashtbl.replace tr.incidents s
            (ev :: Option.value ~default:[] (Hashtbl.find_opt tr.incidents s)))
        incidents;
      credit tr id events t
  | Frame.Failed { id; events; _ } ->
      tr.failed <- tr.failed + 1;
      credit tr id events t
  | Frame.Rejected { id; retry_after_ms } ->
      raise
        (Check_failed
           (Printf.sprintf
              "server rejected batch %d (shard queue full, retry after %d ms): it fell behind the offered load"
              id retry_after_ms))
  | Frame.Stats s -> tr.samples <- (t, s) :: tr.samples
  | Frame.Error_msg msg -> raise (Check_failed ("server error: " ^ msg))
  | Frame.Health _ | Frame.Drained _ -> ()

let stats_frame = lazy (encode Frame.Stats_request)

(* Closed loop: keep [window] batches in flight until all are acked.
   With [stats_every > 0] a stats request rides along every that many
   batches (traced runs only).  Returns the phase's start time. *)
let closed_loop link tr ~window ~stats_every =
  let n = Array.length tr.batches in
  let next = ref 0 in
  let t0 = now () in
  while tr.completed < n do
    while !next < n && !next - tr.completed < window do
      write_all link tr.batches.(!next).b_frame;
      incr next;
      if stats_every > 0 && !next mod stats_every = 0 then
        write_all link (Lazy.force stats_frame)
    done;
    if not (pump link ~timeout:ack_timeout_s (handle tr))
    then raise (Check_failed "acks missing after 30 s (closed loop)")
  done;
  t0

(* Open loop: batch [i] is due at [t0 + i / rate]; it is sent at (or as
   soon after as the loop gets to) its due time, whatever the acks are
   doing.  Returns per-batch lateness (send - due) and latency (last ack
   - due), both in seconds. *)
let open_loop link tr ~rate =
  let n = Array.length tr.batches in
  let late = Array.make n 0.0 in
  let t0 = now () +. 0.01 in
  let due i = t0 +. (float_of_int i /. rate) in
  let next = ref 0 in
  while tr.completed < n do
    let t = now () in
    if !next < n && t >= due !next then begin
      write_all link tr.batches.(!next).b_frame;
      late.(!next) <- now () -. due !next;
      incr next
    end
    else begin
      let timeout =
        if !next < n then Float.max 0.0 (due !next -. t) else ack_timeout_s
      in
      if (not (pump link ~timeout (handle tr))) && !next >= n then
        raise (Check_failed "acks missing after 30 s (open loop)")
    end
  done;
  let latency = Array.mapi (fun i d -> d -. due i) tr.done_at in
  (late, latency)
