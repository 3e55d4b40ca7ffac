(* A serve workload's inputs, all generated from the run's seed: the
   model's training suite, the distinct session contents, and the batch
   plan that interleaves sessions into framed batches.

   Sessions reuse a bounded set of distinct contents under fresh session
   ids, so a long run costs little memory and the serial reference
   replay runs once per distinct content. *)

open Seqdiv_stream
open Seqdiv_synth
open Seqdiv_util

type item =
  | Data of { session : int; content : int; off : int; len : int }
  | End of int

type batch = { id : int; items : item array; events : int; symbols : int }

type t = {
  contents : int array array;
  session_content : (int, int) Hashtbl.t;  (* session id -> content *)
}

let content_of t session = Hashtbl.find t.session_content session

let build_contents suite ~seed ~distinct ~length ~drifting ~attack_every ~window =
  let rng = Prng.create ~seed:(seed + 9) in
  let attacks = if attack_every <= 0 then 0 else distinct / attack_every in
  let benign = distinct - attacks in
  let benign =
    Sessions.traces
      (if drifting then
         Session_workload.drifting suite rng ~sessions:benign ~length
           ~segments:4 ~peak_deviation:0.25
       else Session_workload.normal suite rng ~sessions:benign ~length)
  in
  let attack =
    if attacks = 0 then []
    else
      Sessions.traces
        (Session_workload.anomalous suite ~sessions:attacks ~length
           ~anomaly_size:4 ~window)
  in
  (* Attack sessions spread through the corpus, every k-th slot. *)
  let b = Queue.of_seq (List.to_seq benign)
  and a = Queue.of_seq (List.to_seq attack) in
  Array.init distinct (fun i ->
      let q =
        if attack_every > 0 && i mod attack_every = attack_every - 1
           && not (Queue.is_empty a)
        then a
        else if Queue.is_empty b then a
        else b
      in
      Trace.to_array (Queue.pop q))

let create contents = { contents; session_content = Hashtbl.create 1024 }

(* Batches for [rounds] rounds of [concurrent] sessions.  Within a round
   the sessions' chunks interleave round-robin; each session ends after
   its last chunk.  Session ids start at [first_session], batch ids at
   [first_id]; both stay unique for the server's life because every
   phase starts where the previous one stopped. *)
let plan (t : t) ~rounds ~concurrent ~chunk ~batch_events ~first_session ~first_id =
  let batches = ref [] and current = ref [] and n = ref 0 and syms = ref 0 in
  let next_id = ref first_id in
  let flush () =
    if !n > 0 then begin
      batches :=
        { id = !next_id; items = Array.of_list (List.rev !current); events = !n;
          symbols = !syms }
        :: !batches;
      incr next_id;
      current := [];
      n := 0;
      syms := 0
    end
  in
  let push it =
    current := it :: !current;
    incr n;
    (match it with Data { len; _ } -> syms := !syms + len | End _ -> ());
    if !n >= batch_events then flush ()
  in
  let distinct = Array.length t.contents in
  let session = ref first_session in
  for _ = 1 to rounds do
    let members =
      Array.init concurrent (fun _ ->
          let s = !session in
          incr session;
          let c = (s - first_session) mod distinct in
          Hashtbl.replace t.session_content s c;
          (s, c))
    in
    let longest =
      Array.fold_left (fun m (_, c) -> Stdlib.max m (Array.length t.contents.(c))) 0 members
    in
    let off = ref 0 in
    while !off < longest do
      Array.iter
        (fun (s, c) ->
          let len = Array.length t.contents.(c) in
          if !off < len then begin
            push (Data { session = s; content = c; off = !off;
                         len = Stdlib.min chunk (len - !off) });
            if !off + chunk >= len then push (End s)
          end)
        members;
      off := !off + chunk
    done
  done;
  flush ();
  (Array.of_list (List.rev !batches), !session)

let event (t : t) = function
  | Data { session; content; off; len } ->
      Frame.Data { session; symbols = Array.sub t.contents.(content) off len }
  | End session -> Frame.End_of_session { session }

let events t b = Array.to_list (Array.map (event t) b.items)
let request t b = Frame.Batch { id = b.id; events = events t b }

let sessions_of batches =
  let seen = Hashtbl.create 1024 in
  Array.iter
    (fun b ->
      Array.iter
        (function
          | Data { session; _ } | End session -> Hashtbl.replace seen session ())
        b.items)
    batches;
  Hashtbl.fold (fun s () acc -> s :: acc) seen [] |> List.sort compare
