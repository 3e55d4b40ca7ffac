(* The paper-maps workload: the paper's four detectors over the full
   anomaly-size x detector-window grid (Figures 3-6) at the default
   scale, through [Experiment.all_maps] on a two-domain engine.  No
   serve layer runs here. *)

open Seqdiv_synth
open Seqdiv_core
open Seqdiv_detectors
open Common

let train_len = 150_000
let background_len = 8_000
let jobs = 2

let params seed =
  { (Suite.scaled_params ~train_len ~background_len) with Suite.seed }

(* Per-detector outcome counts (capable, weak, blind, failed) pinned at
   seed 2005 — the paper's result at this scale.  The counts are a
   structural property of the grid (Stide is blind exactly where the
   window is shorter than the anomaly, and so on), so every seed's maps
   must reproduce them. *)
let pinned_2005 =
  [
    ("markov", (112, 0, 0, 0));
    ("lnb", (0, 84, 28, 0));
    ("nn", (112, 0, 0, 0));
    ("stide", (84, 0, 28, 0));
  ]

let summary_counts maps =
  List.map
    (fun m ->
      let s = Experiment.summary m in
      Experiment.(s.detector, (s.capable, s.weak, s.blind, s.failed)))
    maps

let render_counts counts =
  String.concat "; "
    (List.map
       (fun (d, (c, w, b, f)) ->
         Printf.sprintf "%s capable=%d weak=%d blind=%d failed=%d" d c w b f)
       counts)

let check_summary ~corrupt maps =
  let got = summary_counts maps in
  let expected =
    if corrupt then
      List.map (fun (d, (c, w, b, f)) -> (d, (c + 1, w, b, f))) pinned_2005
    else pinned_2005
  in
  check (got = expected) "paper-maps summary differs from the seed-2005 pin: got [%s], want [%s]"
    (render_counts got) (render_counts expected)

(* Symbols of input the grid covers: every detector reads the training
   stream once per window and every cell's test stream once. *)
let input_symbols (suite : Suite.t) =
  let windows = List.length (Suite.windows suite) in
  let tests =
    Array.fold_left
      (fun acc (s : Suite.test_stream) ->
        acc + Seqdiv_stream.Trace.length s.Suite.injection.Injector.trace)
      0 suite.Suite.streams
  in
  List.length Registry.all
  * ((windows * Seqdiv_stream.Trace.length suite.Suite.training) + tests)

let build_suites ~seed ~count =
  let times = Array.make count 0.0 and suite = ref None in
  for i = 0 to count - 1 do
    let s, dt = time (fun () -> Suite.build (params seed)) in
    times.(i) <- dt;
    suite := Some s
  done;
  (Option.get !suite, times)

let timed_maps suite =
  let engine = Engine.create ~jobs () in
  time (fun () -> Experiment.all_maps ~engine suite Registry.all)

(* Untraced run: end-to-end metrics.  [seconds] bounds the repeated
   all-maps phase (at least two repeats). *)
let run ~seed ~seconds ~corrupt =
  let suite, setup_times = build_suites ~seed ~count:9 in
  let walls = ref [] in
  let t0 = now () in
  while List.length !walls < 2 || now () -. t0 < seconds do
    let maps, dt = timed_maps suite in
    check_summary ~corrupt maps;
    walls := dt :: !walls
  done;
  let walls = Array.of_list (List.rev !walls) in
  let symbols = float_of_int (input_symbols suite) in
  let ops = Array.length walls in
  let metrics =
    [
      ("setup_s", median setup_times);
      ("throughput_sym_s", symbols /. median walls);
      ("p50_ms", 1000.0 *. median walls);
      ("peak_rss_mb", peak_rss_mb None);
    ]
  in
  (ops, 0, metrics, [ ("maps_repeats", Int ops) ])

(* Traced run: the same grid at jobs 1 with the engine's stage clock on,
   one detector at a time (shared cache, so trie hits are counted), then
   at jobs 2 for the pool's busy fraction. *)
let run_traced ~seed ~corrupt =
  let suite, setup_times = build_suites ~seed ~count:1 in
  let engine = Engine.create ~clock:now ~jobs:1 () in
  let per_detector = ref [] in
  let maps1 =
    List.map
      (fun d ->
        Engine.reset_stats engine;
        let m =
          match Experiment.all_maps ~engine suite [ d ] with
          | [ m ] -> m
          | _ -> assert false
        in
        let st = Engine.stats engine in
        let module D = (val d : Detector.S) in
        per_detector := (D.name, st) :: !per_detector;
        m)
      Registry.all
  in
  let per_detector = List.rev !per_detector in
  check_summary ~corrupt maps1;
  let maps2, wall2 = timed_maps suite in
  check
    (List.for_all2
       (fun a b -> Experiment.summary a = Experiment.summary b)
       maps1 maps2)
    "jobs-1 and jobs-%d maps differ" jobs;
  let sum f = List.fold_left (fun acc (_, st) -> acc +. f st) 0.0 per_detector in
  let train_s = sum (fun st -> st.Engine.train_seconds) in
  let score_s = sum (fun st -> st.Engine.score_seconds) in
  let isum f = List.fold_left (fun acc (_, st) -> acc + f st) 0 per_detector in
  let hits = isum (fun st -> st.Engine.trie_hits) in
  let built = isum (fun st -> st.Engine.tries_built) in
  let train_of name =
    match List.assoc_opt name per_detector with
    | Some st -> st.Engine.train_seconds
    | None -> 0.0
  in
  ( List.length Registry.all,
    0,
    [
      ("suite.build_s", setup_times.(0));
      ("engine.train_s.stide", train_of "stide");
      ("engine.train_s.markov", train_of "markov");
      ("engine.train_s.lnb", train_of "lnb");
      ("engine.train_s.nn", train_of "nn");
      ("engine.score_s", score_s);
      ( "engine.trie_hit_ratio",
        if hits + built = 0 then 0.0
        else float_of_int hits /. float_of_int (hits + built) );
      ("pool.busy_frac", (train_s +. score_s) /. (float_of_int jobs *. wall2));
    ],
    [] )
