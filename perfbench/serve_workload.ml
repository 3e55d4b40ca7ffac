(* The three `seqdiv serve` workloads.  A run trains and compiles the
   workload's model, generates its session corpus from the seed,
   encodes every frame, then times server start-up, a closed-loop
   throughput phase and an open-loop latency phase against one fresh
   server, and checks the acked incident log against a serial [Online]
   replay. *)

open Seqdiv_stream
open Seqdiv_synth
open Seqdiv_core
open Seqdiv_detectors
open Common

type spec = {
  name : string;
  detector : string;
  session_length : int;
  concurrent : int;  (* sessions interleaved per round *)
  chunk : int;  (* symbols per Data event *)
  batch_events : int;
  journal : bool;
  alarm_budget : float option;
  drifting : bool;
  closed_sym_s : float;  (* sizes the closed-loop phase; not a target *)
  open_batches_s : float;  (* the open-loop phase's offered rate *)
}

(* Every model is compiled at this window. *)
let window = 6

(* One shard per server: on a two-core machine a second shard domain
   competes with the server's reader and writer domains and with the
   load generator, which spreads p50 latency three times wider across
   runs without raising closed-loop throughput much. *)
let shards = 1

(* Closed-loop window, in batches. *)
let inflight = 4

(* Per-shard ingress queue, in sub-batches.  The server's default (64)
   fills in a fraction of a second when the host stalls the shard under
   open-loop load, and a rejected batch fails the run (Loadgen.handle);
   this one absorbs stalls of several seconds at every workload's rate.
   It holds batches only while the shard is behind. *)
let queue_capacity = 4096

(* Every fourth session is an attack session. *)
let attack_every = 4

let specs =
  [
    {
      name = "serve-static";
      detector = "stide";
      session_length = 8192;
      concurrent = 48;
      chunk = 64;
      batch_events = 256;
      journal = false;
      alarm_budget = None;
      drifting = false;
      closed_sym_s = 8e6;
      open_batches_s = 120.0;
    };
    {
      name = "serve-durable";
      detector = "stide";
      session_length = 200;
      concurrent = 64;
      chunk = 25;
      batch_events = 16;
      journal = true;
      alarm_budget = None;
      drifting = false;
      closed_sym_s = 1.4e6;
      open_batches_s = 500.0;
    };
    {
      name = "serve-adaptive";
      detector = "markov";
      session_length = 1000;
      concurrent = 32;
      chunk = 16;
      batch_events = 16;
      journal = true;
      alarm_budget = Some 0.05;
      drifting = true;
      closed_sym_s = 80e3;
      open_batches_s = 60.0;
    };
  ]

type env = {
  bin : string;  (* the seqdiv executable *)
  work_dir : string;
  journal_root : string;
  seed : int;
  seconds : float;
  corrupt_reference : bool;
  reuse_batch_id : bool;
}

let closed_share = 0.4
let open_share = 0.4
let setup_starts = 21

(* Both timed phases are cut into consecutive segments and each metric
   is the median over segments, so a burst of interference from outside
   the benchmark spoils one segment rather than the run.  Open-loop
   segments hold at least [min_segment] batches, so a segment's p90 has
   ten samples beyond it. *)
let phase_segments = 16
let min_segment = 100

(* Symbols per second of each closed-loop segment: a segment ends when
   its last batch is fully acked. *)
let segment_rates (tr : Loadgen.tracker) ~t0 =
  let n = Array.length tr.Loadgen.batches in
  let prev = ref t0 in
  Array.map
    (fun (lo, hi) ->
      let fin = ref !prev and syms = ref 0 in
      for i = lo to hi - 1 do
        fin := Float.max !fin tr.Loadgen.done_at.(i);
        syms := !syms + tr.Loadgen.batches.(i).Loadgen.b_symbols
      done;
      let rate = float_of_int !syms /. (!fin -. !prev) in
      prev := !fin;
      rate)
    (segments n phase_segments)

let open_segments n = Stdlib.max 1 (Stdlib.min phase_segments (n / min_segment))

(* The median over open-loop segments of a latency percentile. *)
let segment_percentile latency p =
  let n = Array.length latency in
  median
    (Array.map
       (fun (lo, hi) -> percentile (Array.sub latency lo (hi - lo)) p)
       (segments n (open_segments n)))

(* --- model ------------------------------------------------------------ *)

type model = {
  path : string;
  scorer : Flat_automaton.scorer;
  threshold : float;
  adaptive : Adaptive_threshold.config option;
  suite_build_s : float;
  train_s : float;
}

let build_model spec env suite ~suite_build_s =
  let engine = Engine.create ~clock:now () in
  let trained =
    Engine.train engine (Registry.find_exn spec.detector) ~window
      suite.Suite.training
  in
  let train_s = (Engine.stats engine).Engine.train_seconds in
  let scorer =
    match Trained.compile trained with
    | Some s -> s
    | None -> failwith (spec.detector ^ " does not compile to a flat automaton")
  in
  let path = Filename.concat env.work_dir (spec.name ^ ".flat") in
  Model_io.save_flat_file path ~detector:spec.detector
    ~alarm_threshold:(Trained.alarm_threshold trained) scorer;
  (* The reference replays the very tables the server maps. *)
  let flat = Model_io.load_flat_file path in
  let threshold = flat.Model_io.flat_alarm_threshold in
  {
    path;
    scorer = flat.Model_io.flat_scorer;
    threshold;
    adaptive =
      Option.map
        (fun budget -> Adaptive_threshold.config ~budget ~initial:threshold ())
        spec.alarm_budget;
    suite_build_s;
    train_s;
  }

(* --- reference log ------------------------------------------------------ *)

let with_session s = function
  | Frame.Opened { position; _ } -> Frame.Opened { session = s; position }
  | Frame.Closed { incident; _ } -> Frame.Closed { session = s; incident }

(* The incident events of one whole session, serially, session id 0. *)
let reference_events model content =
  let m = Online.of_scorer ?adaptive:model.adaptive model.scorer ~threshold:model.threshold in
  let acc = ref [] in
  Array.iter
    (fun s -> acc := List.rev_append (Layers.incident_events 0 (Online.feed m s)) !acc)
    content;
  acc := List.rev_append (Layers.incident_events 0 (Online.flush m)) !acc;
  List.rev !acc

let check_incidents env corpus references (tr : Loadgen.tracker) batches =
  let corrupted = ref (not env.corrupt_reference) in
  List.iter
    (fun s ->
      let render evs = List.map (fun e -> Frame.render_incident_event (with_session s e)) evs in
      let expected = render references.(Corpus.content_of corpus s) in
      let expected =
        if !corrupted then expected
        else begin
          corrupted := true;
          "corrupted reference line" :: expected
        end
      in
      let got =
        render (List.rev (Option.value ~default:[] (Hashtbl.find_opt tr.Loadgen.incidents s)))
      in
      check (got = expected)
        "incident log of session %d differs from the serial Online replay (%d lines acked, %d expected)"
        s (List.length got) (List.length expected))
    (Corpus.sessions_of batches)

(* --- a run ---------------------------------------------------------------- *)

let server_args spec model ~journal_dir =
  [ "--model"; model.path; "--shards"; string_of_int shards;
    "--queue-capacity"; string_of_int queue_capacity ]
  @ (match journal_dir with Some d -> [ "--journal-dir"; d ] | None -> [])
  @
  match spec.alarm_budget with
  | Some b -> [ "--alarm-budget"; Printf.sprintf "%h" b ]
  | None -> []

let ceil_div a b = (a + b - 1) / b

let encode corpus batches =
  Array.map
    (fun (b : Corpus.batch) ->
      {
        Loadgen.b_id = b.Corpus.id;
        b_frame = Loadgen.encode (Corpus.request corpus b);
        b_events = b.Corpus.events;
        b_symbols = b.Corpus.symbols;
      })
    batches

let sum_shards f stats = List.fold_left (fun acc s -> acc + f s) 0 stats

let run spec env ~traced =
  let fstype = fs_type env.journal_root in
  if spec.journal && (fstype = "tmpfs" || fstype = "ramfs") then
    raise
      (Refused
         (Printf.sprintf "journal directory %s is on %s, where fsync is free"
            env.journal_root fstype));
  let suite, suite_build_s =
    time (fun () ->
        Suite.build
          { (Suite.scaled_params ~train_len:20_000 ~background_len:3_000) with
            Suite.seed = env.seed })
  in
  let model = build_model spec env suite ~suite_build_s in
  let contents =
    Corpus.build_contents suite ~seed:env.seed ~distinct:spec.concurrent
      ~length:spec.session_length ~drifting:spec.drifting
      ~attack_every ~window
  in
  let corpus = Corpus.create contents in
  let round_symbols = spec.concurrent * spec.session_length in
  let closed_rounds =
    Stdlib.max 1
      (int_of_float (Float.ceil (spec.closed_sym_s *. env.seconds *. closed_share))
       / round_symbols)
  in
  let closed, next_session =
    Corpus.plan corpus ~rounds:closed_rounds ~concurrent:spec.concurrent
      ~chunk:spec.chunk ~batch_events:spec.batch_events ~first_session:0 ~first_id:0
  in
  let round_events = spec.concurrent * (ceil_div spec.session_length spec.chunk + 1) in
  let open_batches = int_of_float (spec.open_batches_s *. env.seconds *. open_share) in
  let open_rounds = Stdlib.max 1 (ceil_div (open_batches * spec.batch_events) round_events) in
  let opened, _ =
    Corpus.plan corpus ~rounds:open_rounds ~concurrent:spec.concurrent
      ~chunk:spec.chunk ~batch_events:spec.batch_events ~first_session:next_session
      ~first_id:(Array.length closed)
  in
  if env.reuse_batch_id then begin
    (* Fault injection for the replay guard's own test: the last
       closed-loop batch reuses an id the server still remembers. *)
    let n = Array.length closed in
    let old = closed.(Stdlib.max 0 (n - 1 - inflight - 2)) in
    closed.(n - 1) <- { (closed.(n - 1)) with Corpus.id = old.Corpus.id }
  end;
  let references = Array.map (reference_events model) contents in
  let closed_frames = encode corpus closed and open_frames = encode corpus opened in
  (* Set-up: fresh servers, each on an empty journal directory; the last
     one serves the run. *)
  let sock k = Filename.concat env.work_dir (Printf.sprintf "s%d-%d.sock" (Unix.getpid ()) k) in
  let journal_dir k =
    if spec.journal then begin
      let d =
        Filename.concat env.journal_root
          (Printf.sprintf "%s-%d-%d" spec.name (Unix.getpid ()) k)
      in
      rm_rf d;
      mkdir_p d;
      Some d
    end
    else None
  in
  let log = Filename.concat env.work_dir (spec.name ^ ".server.log") in
  let setup_times = Array.make setup_starts 0.0 in
  let server = ref None in
  for k = 0 to setup_starts - 1 do
    let jd = journal_dir k in
    let s, link, dt =
      Loadgen.start_and_wait ~bin:env.bin
        ~args:(server_args spec model ~journal_dir:jd)
        ~sock:(sock k) ~log
    in
    setup_times.(k) <- dt;
    if k < setup_starts - 1 then begin
      Loadgen.stop s link;
      Option.iter rm_rf jd
    end
    else server := Some (s, link, jd)
  done;
  let srv, link, jd = Option.get !server in
  let closed_tr = Loadgen.tracker closed_frames and open_tr = Loadgen.tracker open_frames in
  let before = if traced then Some (now (), Loadgen.stats link) else None in
  let closed_t0 =
    Loadgen.closed_loop link closed_tr ~window:inflight
      ~stats_every:(if traced then 8 else 0)
  in
  let closed_s = now () -. closed_t0 in
  let after_closed = if traced then Some (now (), Loadgen.stats link) else None in
  let late, latency = Loadgen.open_loop link open_tr ~rate:spec.open_batches_s in
  let final = Loadgen.stats link in
  let rss = peak_rss_mb (Some srv.Loadgen.pid) in
  Loadgen.stop srv link;
  Option.iter rm_rf jd;
  Printf.eprintf
    "perfbench: %s closed %d batches in %.3f s (%.0f/s); open %d batches at %g/s: late p50 %.3f p99 %.3f ms, latency p50 %.3f p99 %.3f ms; failed %d\n%!"
    spec.name (Array.length closed_frames) closed_s
    (float_of_int (Array.length closed_frames) /. closed_s)
    (Array.length open_frames) spec.open_batches_s
    (1000.0 *. median late) (1000.0 *. percentile late 99.0)
    (1000.0 *. median latency) (1000.0 *. percentile latency 99.0)
    (closed_tr.Loadgen.failed + open_tr.Loadgen.failed);
  (* Checks: the replay guard, then the reference log, then validity. *)
  let sent =
    Array.fold_left (fun acc b -> acc + b.Loadgen.b_events) 0 closed_frames
    + Array.fold_left (fun acc b -> acc + b.Loadgen.b_events) 0 open_frames
  in
  let applied = sum_shards (fun s -> s.Frame.events) final in
  check (applied = sent)
    "replay guard: shards applied %d events but %d were sent (a batch was re-acked without being applied)"
    applied sent;
  (* One shard, so every batch is one sub-batch. *)
  let batches_sent = Array.length closed_frames + Array.length open_frames in
  let batches_applied = sum_shards (fun s -> s.Frame.batches) final in
  check (batches_applied = batches_sent)
    "replay guard: shards applied %d batches but %d were sent (a batch was re-acked without being applied)"
    batches_applied batches_sent;
  check_incidents env corpus references closed_tr closed;
  check_incidents env corpus references open_tr opened;
  let period = 1.0 /. spec.open_batches_s in
  (* Per segment, like p50_ms: a host pause stalls the generator and the
     server alike and spoils the segments it falls in, while a generator
     that cannot keep up is late in every segment.  Latency counts from
     due times, so a pause is charged to the measured latency, not
     hidden; only lateness of many batch periods means the offered load
     itself was not delivered. *)
  let late_p99 = segment_percentile late 99.0 in
  let late_limit = Float.max 0.050 (5.0 *. period) in
  check (late_p99 <= late_limit)
    "load generator fell behind its schedule: late p99 %.3f ms > %.3f ms (median over segments)"
    (1000.0 *. late_p99) (1000.0 *. late_limit);
  let attempted = Array.length closed_frames + Array.length open_frames in
  let failed = closed_tr.Loadgen.failed + open_tr.Loadgen.failed in
  let metrics =
    if not traced then
      [
        ("setup_s", median setup_times);
        ("throughput_sym_s", median (segment_rates closed_tr ~t0:closed_t0));
        ("p50_ms", 1000.0 *. segment_percentile latency 50.0);
        ("peak_rss_mb", rss);
      ]
    else begin
      let t0, s0 = Option.get before and t1, s1 = Option.get after_closed in
      let samples = List.rev closed_tr.Loadgen.samples in
      let per_sample f =
        Array.of_list (List.map (fun (_, st) -> float_of_int (List.fold_left (fun m s -> Stdlib.max m (f s)) 0 st)) samples)
      in
      let busy =
        float_of_int (sum_shards (fun s -> s.Frame.busy_ns) s1 - sum_shards (fun s -> s.Frame.busy_ns) s0)
        /. 1e9 /. (float_of_int shards *. (t1 -. t0))
      in
      let shard_p50_final =
        median (Array.of_list (List.map (fun s -> float_of_int s.Frame.p50_batch_ns) final))
      in
      let layers =
        Layers.kernel model.scorer contents
        @ Layers.online ~prefix:"online" model.scorer ~threshold:model.threshold contents
        @ (match model.adaptive with
          | Some a ->
              Layers.online ~prefix:"online_adaptive" ~adaptive:a model.scorer
                ~threshold:model.threshold contents
              @ Layers.adaptive_layers a model.scorer contents
          | None -> [])
        @ Layers.session_table ?adaptive:model.adaptive model.scorer
            ~threshold:model.threshold corpus closed
        @ (if spec.journal then begin
             let path =
               Filename.concat env.journal_root
                 (Printf.sprintf "%s-%d-layer.journal" spec.name (Unix.getpid ()))
             in
             rm_rf path;
             Fun.protect
               ~finally:(fun () -> rm_rf path)
               (fun () ->
                 Layers.shard_journal ?adaptive:model.adaptive model.scorer
                   ~threshold:model.threshold ~path corpus
                   (Layers.prefix_by_symbols closed ~max_symbols:200_000))
           end
           else [])
        @ Layers.frame_codec corpus (Layers.prefix_by_symbols closed ~max_symbols:1_000_000)
      in
      layers
      @ [
          ("serve.busy_frac", busy);
          ("serve.batch_p50_us", median (per_sample (fun s -> s.Frame.p50_batch_ns)) /. 1e3);
          ("serve.batch_p99_us", median (per_sample (fun s -> s.Frame.p99_batch_ns)) /. 1e3);
          ("serve.queue_depth_max", Array.fold_left Float.max 0.0 (per_sample (fun s -> s.Frame.queue_depth)));
          ("serve.rejected", float_of_int (sum_shards (fun s -> s.Frame.rejected) final));
          ("serve.applied_ratio", float_of_int applied /. float_of_int sent);
          ("serve.wire_us", (1e6 *. median latency) -. (shard_p50_final /. 1e3));
          ("client.p90_ms", 1000.0 *. segment_percentile latency 90.0);
          ("client.p99_ms", 1000.0 *. percentile latency 99.0);
          ("suite.build_s", model.suite_build_s);
          ("engine.train_s." ^ spec.detector, model.train_s);
          ("loadgen.late_ms_p99", 1000.0 *. late_p99);
          ("loadgen.sent", float_of_int attempted);
        ]
    end
  in
  let samples = Array.length latency in
  ( attempted,
    failed,
    metrics,
    [
      ("closed_loop_batches", Int (Array.length closed_frames));
      ("open_loop_batches", Int samples);
      ("open_loop_segments", Int (open_segments samples));
    ] )
