(* Benchmark harness: regenerates every figure and table of the paper
   (DESIGN.md section 3) and then runs one Bechamel micro-benchmark per
   experiment kernel.

   Usage: dune exec bench/main.exe -- [--full] [--train-len N]
            [--background-len N] [--deploy-len N] [--no-micro]
            [--csv-dir DIR] [-j N | --jobs N] [--trace] [--json FILE]

   By default a reduced scale is used (150k training elements); --full
   switches to the paper's 1M-element training stream.  The map shapes
   are identical at both scales (DESIGN.md section 4).
   --background-len sets the injected test streams' background length
   (default 8000).  --jobs N runs detector training/scoring on N worker
   domains (results are byte-identical for every N); --trace prints the
   engine's per-stage timers to stderr; --json FILE additionally writes
   machine-readable per-stage timings and map summaries. *)

open Seqdiv_stream
open Seqdiv_synth
open Seqdiv_core
open Seqdiv_detectors
open Seqdiv_report

type options = {
  train_len : int;
  background_len : int;
  deploy_len : int;
  micro : bool;
  grid_only : bool;
  streaming : bool;
  adaptive : bool;
  csv_dir : string option;
  jobs : int;
  trace : bool;
  json : string option;
  chaos : float; (* transient fault-injection rate; 0 = supervision idle *)
  chaos_fatal : float;
  chaos_hang : float;
  chaos_seed : int;
  deadline_ms : int option;
}

let default_options =
  {
    train_len = 150_000;
    background_len = 8_000;
    deploy_len = 30_000;
    micro = true;
    grid_only = false;
    streaming = false;
    adaptive = false;
    csv_dir = None;
    jobs = 1;
    trace = false;
    json = None;
    chaos = 0.0;
    chaos_fatal = 0.0;
    chaos_hang = 0.0;
    chaos_seed = 7;
    deadline_ms = None;
  }

let parse_options () =
  let rec go acc = function
    | [] -> acc
    | "--full" :: rest -> go { acc with train_len = 1_000_000 } rest
    | "--train-len" :: v :: rest ->
        go { acc with train_len = int_of_string v } rest
    | "--background-len" :: v :: rest ->
        go { acc with background_len = int_of_string v } rest
    | "--deploy-len" :: v :: rest ->
        go { acc with deploy_len = int_of_string v } rest
    | "--no-micro" :: rest -> go { acc with micro = false } rest
    | "--grid-only" :: rest -> go { acc with grid_only = true; micro = false } rest
    | "--streaming" :: rest -> go { acc with streaming = true; micro = false } rest
    | "--adaptive" :: rest -> go { acc with adaptive = true; micro = false } rest
    | "--csv-dir" :: v :: rest -> go { acc with csv_dir = Some v } rest
    | ("-j" | "--jobs") :: v :: rest ->
        let jobs = int_of_string v in
        let jobs =
          if jobs <= 0 then Seqdiv_util.Pool.recommended_jobs () else jobs
        in
        go { acc with jobs } rest
    | "--trace" :: rest -> go { acc with trace = true } rest
    | "--json" :: v :: rest -> go { acc with json = Some v } rest
    | "--chaos" :: rest -> go { acc with chaos = 0.05 } rest
    | "--chaos-rate" :: v :: rest ->
        go { acc with chaos = float_of_string v } rest
    | "--chaos-fatal" :: v :: rest ->
        go { acc with chaos_fatal = float_of_string v } rest
    | "--chaos-hang" :: v :: rest ->
        go { acc with chaos_hang = float_of_string v } rest
    | "--chaos-seed" :: v :: rest ->
        go { acc with chaos_seed = int_of_string v } rest
    | "--deadline-ms" :: v :: rest ->
        go { acc with deadline_ms = Some (int_of_string v) } rest
    | arg :: _ ->
        prerr_endline ("unknown argument: " ^ arg);
        exit 2
  in
  let opts = go default_options (List.tl (Array.to_list Sys.argv)) in
  (match opts.deadline_ms with
  | Some ms when ms <= 0 ->
      prerr_endline "--deadline-ms must be positive";
      exit 2
  | _ -> ());
  (* A hang-fated task only terminates when a deadline watchdog is
     armed around it: refuse the combination that would truly hang. *)
  if opts.chaos_hang > 0.0 && opts.deadline_ms = None then begin
    prerr_endline "--chaos-hang requires --deadline-ms";
    exit 2
  end;
  opts

let chaos_plan opts =
  if opts.chaos > 0.0 || opts.chaos_fatal > 0.0 || opts.chaos_hang > 0.0 then
    Some
      (Fault_plan.of_seed ~transient_rate:opts.chaos
         ~fatal_rate:opts.chaos_fatal ~hang_rate:opts.chaos_hang
         ~seed:opts.chaos_seed ())
  else None

let section title = Printf.printf "\n=== %s ===\n%!" title

(* Every [timed] section is also recorded here so --json can replay the
   stage timings machine-readably. *)
let stages : (string * float) list ref = ref []

(* Scalar measurements (allocation rates, node counts) for --json. *)
let measurements : (string * float) list ref = ref []

let measure label value =
  measurements := (label, value) :: !measurements;
  Printf.printf "%s: %.3f\n%!" label value

let timed label f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let dt = Unix.gettimeofday () -. t0 in
  stages := (label, dt) :: !stages;
  Printf.printf "[%s: %.2fs]\n%!" label dt;
  result

let figure_order maps =
  (* The paper presents L&B (Fig 3), Markov (Fig 4), Stide (Fig 5),
     NN (Fig 6). *)
  let find name =
    List.find (fun m -> Performance_map.detector m = name) maps
  in
  [
    ("Figure 3", find "lnb");
    ("Figure 4", find "markov");
    ("Figure 5", find "stide");
    ("Figure 6", find "nn");
  ]

let write_csvs maps dir =
  List.iter
    (fun m ->
      let path =
        Filename.concat dir
          (Printf.sprintf "map_%s.csv" (Performance_map.detector m))
      in
      Csv.write_file path
        ~header:
          [ "detector"; "anomaly_size"; "window"; "outcome"; "max_response" ]
        (Csv.map_rows m);
      Printf.printf "wrote %s\n" path)
    maps

(* Minor-heap words allocated per window lookup: the trie cursor descends
   over the raw trace array and must allocate nothing, while the legacy
   path builds one Trace.key string per window.  Run on the calling
   domain with warm code; 10k lookups average out GC noise. *)
let measure_lookup_allocation training trie =
  let width = Stdlib.min 8 (Seq_trie.max_len trie) in
  let data = Trace.raw training in
  let starts = Trace.window_count training ~width in
  let hash_db =
    let tbl = Hashtbl.create 4096 in
    Trace.iter_windows training ~width (fun pos ->
        let k = Trace.key training ~pos ~len:width in
        Hashtbl.replace tbl k
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)));
    tbl
  in
  let iters = Stdlib.min 10_000 starts in
  let per_lookup f =
    let before = Gc.minor_words () in
    for i = 0 to iters - 1 do
      f (i mod starts)
    done;
    (Gc.minor_words () -. before) /. float_of_int iters
  in
  let trie_alloc =
    per_lookup (fun pos -> ignore (Seq_trie.count_at trie data ~pos ~len:width))
  in
  let hash_alloc =
    per_lookup (fun pos ->
        ignore (Hashtbl.find_opt hash_db (Trace.key training ~pos ~len:width)))
  in
  measure "A5_alloc_words_per_trie_lookup" trie_alloc;
  measure "A5_alloc_words_per_hash_lookup" hash_alloc

(* --- full-grid macro benchmark (--grid-only) --------------------------- *)

(* The perf-trajectory kernel tracked by scripts/bench.sh: the whole
   (AS x DW) grid for the sequence-database detectors whose train/score
   hot paths this repo optimises.  Engine train/score stage timings are
   the figures of merit; map summaries double as a correctness probe
   (the optimised paths must not move a single cell). *)
let run_grid opts engine =
  let params =
    Suite.scaled_params ~train_len:opts.train_len
      ~background_len:opts.background_len
  in
  section "Full-grid macro benchmark (stide, tstide, markov)";
  let suite = timed "suite build" (fun () -> Suite.build params) in
  let detectors = List.map Registry.find_exn [ "stide"; "tstide"; "markov" ] in
  let maps =
    timed "grid maps" (fun () -> Experiment.all_maps ~engine suite detectors)
  in
  List.iter
    (fun m ->
      let s = Experiment.summary m in
      Printf.printf "%s: capable %d, weak %d, blind %d\n" s.Experiment.detector
        s.Experiment.capable s.Experiment.weak s.Experiment.blind)
    maps;
  measure_lookup_allocation suite.Suite.training
    (Ngram_index.trie suite.Suite.index);
  (suite, maps)

(* --- streaming throughput (--streaming) -------------------------------- *)

(* The PR-7 figure of merit: per-symbol scoring throughput of the
   compiled flat automaton (one table read + one score read per symbol)
   against the reference trie descent (a fresh O(window) walk per
   completed window).  Both kernels fold their scores into a float
   accumulator, so the work cannot be optimised away; whole-stream
   passes repeat until each kernel has run for a fixed wall-clock
   budget. *)
let run_streaming opts =
  section "Streaming throughput (trie descent vs compiled automaton)";
  let params =
    Suite.scaled_params ~train_len:opts.train_len
      ~background_len:opts.background_len
  in
  let suite = timed "suite build" (fun () -> Suite.build params) in
  let stream =
    Deployment.deployment_stream suite
      ~len:(Stdlib.max 100_000 opts.deploy_len)
      ~seed:(params.Suite.seed + 3)
  in
  let data = Trace.raw stream in
  let n = Array.length data in
  Printf.printf "stream: %d symbols, alphabet %d\n%!" n
    params.Suite.alphabet_size;
  let rate_of ~min_seconds pass =
    ignore (pass ());
    (* warm caches and code *)
    let t0 = Unix.gettimeofday () in
    let passes = ref 0 in
    let sink = ref 0.0 in
    while Unix.gettimeofday () -. t0 < min_seconds do
      sink := !sink +. pass ();
      incr passes
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if Float.is_nan !sink then Printf.printf "(unreachable)\n";
    if Sys.getenv_opt "SEQDIV_BENCH_DEBUG" <> None then
      Printf.printf "  [debug: %d passes in %.3fs]\n%!" !passes dt;
    float_of_int !passes *. float_of_int n /. dt
  in
  List.iter
    (fun window ->
      let trained =
        Trained.train (Registry.find_exn "stide") ~window suite.Suite.training
      in
      let scorer =
        match Trained.compile trained with
        | Some s -> s
        | None -> failwith "stide must compile"
      in
      let auto = Flat_automaton.automaton scorer in
      let compiled = Trained.with_scorer trained scorer in
      (* Reference: the detector's own per-window trie descent (batch). *)
      let trie_pass () =
        let r = Trained.score trained stream in
        Array.fold_left
          (fun acc (it : Response.item) -> acc +. it.Response.score)
          0.0 r.Response.items
      in
      (* Compiled batch: same Response materialisation, automaton core. *)
      let batch_pass () =
        let r = Trained.score compiled stream in
        Array.fold_left
          (fun acc (it : Response.item) -> acc +. it.Response.score)
          0.0 r.Response.items
      in
      (* Pure stream: the Online-monitor inner loop — step + score per
         symbol, no response array at all. *)
      let stream_pass () =
        let acc = ref 0.0 in
        let state = ref Flat_automaton.start in
        for i = 0 to n - 1 do
          state := Flat_automaton.step auto !state (Array.unsafe_get data i);
          acc := !acc +. Flat_automaton.state_score scorer !state
        done;
        !acc
      in
      let trie = rate_of ~min_seconds:0.5 trie_pass in
      let batch = rate_of ~min_seconds:0.5 batch_pass in
      let streamed = rate_of ~min_seconds:0.5 stream_pass in
      measure (Printf.sprintf "streaming_trie_sym_per_sec_w%d" window) trie;
      measure
        (Printf.sprintf "streaming_compiled_batch_sym_per_sec_w%d" window)
        batch;
      measure
        (Printf.sprintf "streaming_automaton_sym_per_sec_w%d" window)
        streamed;
      measure
        (Printf.sprintf "streaming_speedup_w%d" window)
        (streamed /. trie))
    [ 4; 8; 12 ]

(* --- adaptive vs static thresholding under drift ----------------------- *)

(* The serve layer's headline question, answered offline: calibrate a
   static threshold on a pre-drift calibration corpus at the budgeted
   tail, then let the generating process drift and compare the observed
   false-alarm rate of (a) that frozen threshold against (b) the
   per-session adaptive controllers the serve layer runs.  The static
   rate walks away from the budget with the drift; the adaptive one
   re-tracks it.  All measurements land in the --json report. *)
let run_adaptive opts =
  section "Adaptive vs static thresholding under drift";
  let params =
    Suite.scaled_params ~train_len:opts.train_len
      ~background_len:opts.background_len
  in
  let suite = timed "suite build" (fun () -> Suite.build params) in
  (* Markov, not stide: a graded score distribution (1 - transition
     probability) has real tail quantiles; stide's {0,1} scores don't. *)
  let window = 6 in
  let trained =
    Trained.train (Registry.find_exn "markov") ~window suite.Suite.training
  in
  let scorer =
    match Trained.compile trained with
    | Some s -> s
    | None -> failwith "markov (maximum likelihood) must compile"
  in
  let auto = Flat_automaton.automaton scorer in
  let depth = Flat_automaton.depth auto in
  let iter_scores trace f =
    let data = Trace.raw trace in
    let state = ref Flat_automaton.start in
    Array.iteri
      (fun i s ->
        state := Flat_automaton.step auto !state s;
        if i >= depth - 1 then f (Flat_automaton.state_score scorer !state))
      data
  in
  let sessions = 48 and length = 4_000 in
  let calibration =
    Session_workload.normal suite
      (Seqdiv_util.Prng.create ~seed:(params.Suite.seed + 11))
      ~sessions:16 ~length
  in
  let drifting =
    Session_workload.drifting suite
      (Seqdiv_util.Prng.create ~seed:(params.Suite.seed + 12))
      ~sessions ~length ~segments:4 ~peak_deviation:0.25
  in
  Printf.printf "drifting corpus: %d sessions x %d symbols, window %d\n%!"
    sessions length window;
  List.iter
    (fun budget ->
      (* Static: the (1 - budget) score quantile of the calibration
         corpus, frozen for the whole drifting run. *)
      let sketch = Quantile.create ~epsilon:(budget /. 4.0) in
      List.iter
        (fun trace -> iter_scores trace (Quantile.observe sketch))
        (Sessions.traces calibration);
      let static_threshold = Quantile.quantile sketch (1.0 -. budget) in
      let static_windows = ref 0 and static_alarms = ref 0 in
      timed (Printf.sprintf "static sweep b=%g" budget) (fun () ->
          List.iter
            (fun trace ->
              iter_scores trace (fun score ->
                  incr static_windows;
                  (* Strict [>] matches the adaptive controller's alarm
                     rule, so the two sweeps differ only in whether the
                     threshold moves. *)
                  if score > static_threshold then incr static_alarms))
            (Sessions.traces drifting));
      (* Adaptive: one controller per session, exactly what a serve
         monitor owns under --alarm-budget. *)
      let adaptive_windows = ref 0 and adaptive_alarms = ref 0 in
      timed (Printf.sprintf "adaptive sweep b=%g" budget) (fun () ->
          List.iter
            (fun trace ->
              let controller =
                Adaptive_threshold.create
                  (Adaptive_threshold.config ~budget
                     ~initial:static_threshold ())
              in
              iter_scores trace (fun score ->
                  ignore (Adaptive_threshold.step controller score));
              adaptive_windows :=
                !adaptive_windows + Adaptive_threshold.windows controller;
              adaptive_alarms :=
                !adaptive_alarms + Adaptive_threshold.alarms controller)
            (Sessions.traces drifting));
      let rate alarms windows =
        if windows = 0 then 0.0
        else float_of_int alarms /. float_of_int windows
      in
      let static_rate = rate !static_alarms !static_windows in
      let adaptive_rate = rate !adaptive_alarms !adaptive_windows in
      measure (Printf.sprintf "adaptive_b%g_static_threshold" budget)
        static_threshold;
      measure (Printf.sprintf "adaptive_b%g_static_alarm_rate" budget)
        static_rate;
      measure (Printf.sprintf "adaptive_b%g_adaptive_alarm_rate" budget)
        adaptive_rate;
      measure
        (Printf.sprintf "adaptive_b%g_static_budget_error" budget)
        (Float.abs (static_rate -. budget) /. budget);
      measure
        (Printf.sprintf "adaptive_b%g_adaptive_budget_error" budget)
        (Float.abs (adaptive_rate -. budget) /. budget))
    [ 0.01; 0.05 ]

(* --- the paper reproduction ------------------------------------------- *)

let run_paper opts engine =
  let params =
    Suite.scaled_params ~train_len:opts.train_len
      ~background_len:opts.background_len
  in
  section "Evaluation suite (Section 5)";
  let suite = timed "suite build" (fun () -> Suite.build params) in
  Printf.printf
    "training: %d elements, alphabet %d, cycle fraction %.4f, rare threshold \
     %.3f\n"
    (Trace.length suite.Suite.training)
    params.Suite.alphabet_size
    (Generator.cycle_fraction suite.Suite.training)
    params.Suite.rare_threshold;

  section "Figure 2 — boundary sequences and incident span";
  print_string (Paper.figure2 suite ~window:5 ~anomaly_size:8);

  section "Figure 7 — L&B similarity example";
  print_string (Paper.figure7 ());

  section "Figures 3-6 — performance maps";
  let maps =
    timed "all maps" (fun () -> Experiment.all_maps ~engine suite Registry.all)
  in
  List.iter
    (fun (label, map) -> Printf.printf "%s:\n%s\n" label (Paper.figure_map map))
    (figure_order maps);
  Option.iter (write_csvs maps) opts.csv_dir;

  section "T1 — coverage relations (Sections 7-8)";
  print_string (Paper.table1 maps);

  section "T2 — false alarms and the Stide-suppressor ensemble";
  let t2 =
    timed "T2" (fun () ->
        Deployment.suppressor_experiment ~engine suite ~window:8 ~anomaly_size:5
          ~deploy_len:opts.deploy_len ~seed:(params.Suite.seed + 1))
  in
  print_string (Paper.table2 t2);

  section "T3 — lowering the L&B threshold";
  let deploy =
    Deployment.deployment_stream suite ~len:opts.deploy_len
      ~seed:(params.Suite.seed + 2)
  in
  let fa_training =
    Trace.sub suite.Suite.training ~pos:0
      ~len:(Stdlib.min (Trace.length suite.Suite.training) 20_000)
  in
  let t3 =
    timed "T3" (fun () ->
        Deployment.lnb_threshold_experiment ~engine suite ~anomaly_size:5
          ~deploy_trace:deploy ~fa_training)
  in
  print_string (Paper.table3 t3);
  Option.iter
    (fun dir ->
      let path = Filename.concat dir "t3_lnb_threshold.csv" in
      Csv.write_file path
        ~header:[ "window"; "score_threshold"; "hit"; "fa_rate" ]
        (List.map
           (fun (p : Deployment.lnb_threshold_point) ->
             [
               string_of_int p.Deployment.window;
               Printf.sprintf "%.6f" p.Deployment.score_threshold;
               (if p.Deployment.hit then "1" else "0");
               Printf.sprintf "%.6f" p.Deployment.false_alarm_rate;
             ])
           t3);
      Printf.printf "wrote %s\n" path)
    opts.csv_dir;
  print_string
    (Ascii_plot.render ~width:56 ~height:10 ~x_label:"detector window DW"
       ~y_label:"L&B false-alarm rate at the lowered threshold"
       (List.map
          (fun (p : Deployment.lnb_threshold_point) ->
            (float_of_int p.Deployment.window, p.Deployment.false_alarm_rate))
          t3));

  section "A1 — Stide locality frame count";
  let a1 =
    let test = Suite.stream suite ~anomaly_size:4 ~window:6 in
    timed "A1" (fun () ->
        Ablation.lfc_experiment ~engine ~training:fa_training
          ~injection:test.Suite.injection ~deploy ~window:6
          ~settings:[ (20, 1); (20, 2); (20, 4); (50, 8) ] ())
  in
  print_string (Paper.ablation1 a1);

  section "A2 — neural-network hyper-parameter sensitivity";
  let a2 =
    let base = Neural.default_params in
    timed "A2" (fun () ->
        Ablation.nn_sensitivity ~engine suite ~window:6
          ~params:
            [
              base;
              { base with Neural.hidden = 1 };
              { base with Neural.epochs = 10 };
              { base with Neural.learning_rate = 0.005; epochs = 50 };
              { base with Neural.momentum = 0.0; learning_rate = 0.05 };
            ])
  in
  print_string (Paper.ablation2 a2);

  section "A3 — alphabet-size invariance";
  let a3 =
    let base =
      Suite.scaled_params
        ~train_len:(Stdlib.min opts.train_len 80_000)
        ~background_len:4_000
    in
    timed "A3" (fun () ->
        Ablation.alphabet_invariance ~engine ~base ~sizes:[ 6; 8; 12 ] ())
  in
  print_string (Paper.ablation3 a3);

  section "A4 — rare-threshold sensitivity";
  let a4 =
    timed "A4" (fun () ->
        Ablation.rare_threshold_sweep suite
          ~thresholds:[ 0.00005; 0.0001; 0.0005; 0.005; 0.05; 0.2 ])
  in
  print_string (Paper.ablation4 a4);

  section "A6 — window selection trade-off";
  let a6 =
    timed "A6" (fun () ->
        Ablation.window_tradeoff ~engine suite ~fa_training ~deploy)
  in
  print_string (Paper.ablation6 a6);
  Option.iter
    (fun dir ->
      let path = Filename.concat dir "a6_window_tradeoff.csv" in
      Csv.write_file path
        ~header:[ "window"; "coverage"; "fa_rate" ]
        (List.map
           (fun (p : Ablation.window_point) ->
             [
               string_of_int p.Ablation.window;
               Printf.sprintf "%.6f" p.Ablation.coverage;
               Printf.sprintf "%.6f" p.Ablation.false_alarm_rate;
             ])
           a6);
      Printf.printf "wrote %s\n" path)
    opts.csv_dir;
  print_string
    (Ascii_plot.render_series ~width:56 ~height:10 ~x_label:"detector window DW"
       ~y_label:"fraction"
       [
         ( "coverage",
           List.map
             (fun (p : Ablation.window_point) ->
               (float_of_int p.Ablation.window, p.Ablation.coverage))
             a6 );
         ( "FA rate x100",
           List.map
             (fun (p : Ablation.window_point) ->
               (float_of_int p.Ablation.window, p.Ablation.false_alarm_rate *. 100.0))
             a6 );
       ]);

  section "A7 — synthesis operating envelope";
  let a7 =
    let base =
      Suite.scaled_params
        ~train_len:(Stdlib.min opts.train_len 60_000)
        ~background_len:3_000
    in
    timed "A7" (fun () ->
        Ablation.deviation_sweep ~engine ~base
          ~deviations:[ 0.00002; 0.0005; 0.0025; 0.01; 0.05; 0.2 ] ())
  in
  print_string (Paper.ablation7 a7);

  section "A8 — Markov smoothing";
  let a8 =
    timed "A8" (fun () ->
        Ablation.smoothing_sweep suite ~window:6
          ~alphas:[ 0.0; 0.1; 10.0; 1000.0; 100000.0 ])
  in
  print_string (Paper.ablation8 a8);

  section "E1 — extension detectors (t-stide, HMM)";
  let extension_maps =
    timed "E1" (fun () ->
        Experiment.all_maps ~engine suite
          [ Registry.find_exn "tstide"; Registry.find_exn "hmm" ])
  in
  print_string (Paper.extension1 ~paper_maps:maps ~extension_maps);

  section "E2 — rare-sequence anomalies";
  let e2 =
    timed "E2" (fun () ->
        let rare = Rare_anomaly.build suite in
        List.map
          (fun d -> Rare_anomaly.performance_map ~engine rare suite d)
          Registry.extended)
  in
  print_string (Paper.extension2 e2);

  section "E3 — seed robustness";
  let e3 =
    let base =
      Suite.scaled_params
        ~train_len:(Stdlib.min opts.train_len 60_000)
        ~background_len:3_000
    in
    timed "E3" (fun () ->
        Ablation.seed_robustness ~engine ~base ~seeds:[ 1; 7; 42; 2005 ] ())
  in
  print_string (Paper.extension3 e3);

  section "E4 — per-session classification";
  let e4 =
    timed "E4" (fun () ->
        let rng = Seqdiv_util.Prng.create ~seed:(params.Suite.seed + 9) in
        let normal =
          Session_workload.normal suite rng ~sessions:60 ~length:400
        in
        let anomalous =
          Session_workload.anomalous suite ~sessions:30 ~length:400
            ~anomaly_size:5 ~window:8
        in
        List.map
          (fun d ->
            let trained = Engine.train engine d ~window:8 suite.Suite.training in
            let (module D : Detector.S) = d in
            (D.name, Session_eval.evaluate trained ~normal ~anomalous ()))
          Registry.extended)
  in
  print_string (Paper.extension4 e4);

  section "A5 — n-gram index backends (hash tables vs counting trie)";
  let trie_t0 = Unix.gettimeofday () in
  let trie = Seq_trie.of_trace ~max_len:15 suite.Suite.training in
  let trie_dt = Unix.gettimeofday () -. trie_t0 in
  let hash_t0 = Unix.gettimeofday () in
  let hash_dbs =
    (* the legacy backend the trie replaced: one string-keyed hash
       table per width, each filled by its own scan of the trace *)
    Array.init 15 (fun i ->
        let width = i + 1 in
        let tbl = Hashtbl.create 4096 in
        Trace.iter_windows suite.Suite.training ~width (fun pos ->
            let k = Trace.key suite.Suite.training ~pos ~len:width in
            Hashtbl.replace tbl k
              (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)));
        tbl)
  in
  let hash_dt = Unix.gettimeofday () -. hash_t0 in
  let agreement =
    let len = Stdlib.min 5_000 (Trace.length suite.Suite.training) in
    let data = Trace.raw suite.Suite.training in
    let ok = ref true in
    for width = 1 to 15 do
      for pos = 0 to len - width do
        let k = Trace.key suite.Suite.training ~pos ~len:width in
        let h = Option.value ~default:0 (Hashtbl.find_opt hash_dbs.(width - 1) k) in
        if Seq_trie.count_at trie data ~pos ~len:width <> h then ok := false
      done
    done;
    !ok
  in
  let a5 = Table.make ~columns:[ "backend"; "build time"; "memory proxy" ] in
  Table.add_row a5
    [ "hash tables (15 scans)"; Printf.sprintf "%.2fs" hash_dt; "n/a" ];
  Table.add_row a5
    [
      "counting trie (1 pass)";
      Printf.sprintf "%.2fs" trie_dt;
      Printf.sprintf "%d nodes (~%d words)" (Seq_trie.node_count trie)
        (Seq_trie.memory_words trie);
    ];
  Table.print a5;
  Printf.printf "backends agree on all counts: %s\n"
    (if agreement then "yes" else "NO — BUG");
  measure_lookup_allocation suite.Suite.training trie;
  (suite, maps, deploy, trie)

(* --- Bechamel micro-benchmarks ---------------------------------------- *)

let micro_tests suite maps deploy trie =
  let open Bechamel in
  let training = suite.Suite.training in
  let window = 6 in
  let test = Suite.stream suite ~anomaly_size:4 ~window in
  let injection = test.Suite.injection in
  let trace = injection.Injector.trace in
  let lo, hi =
    Injector.incident_span ~position:injection.Injector.position
      ~size:(Array.length injection.Injector.anomaly)
      ~width:window
  in
  let stide = Trained.train (Registry.find_exn "stide") ~window training in
  let markov = Trained.train (Registry.find_exn "markov") ~window training in
  let lnb = Trained.train (Registry.find_exn "lnb") ~window training in
  let nn = Trained.train (Registry.find_exn "nn") ~window training in
  let markov_deploy = Trained.score markov deploy in
  let stide_deploy = Trained.score stide deploy in
  let coverages = List.map Coverage.of_map maps in
  let span d () = ignore (Trained.score_range d trace ~lo ~hi) in
  let small_train = Trace.sub training ~pos:0 ~len:20_000 in
  [
    Test.make ~name:"F2_injection_search"
      (Staged.stage (fun () ->
           ignore
             (Injector.inject suite.Suite.index
                ~background:
                  (Generator.background suite.Suite.alphabet ~len:2_000
                     ~phase:0)
                ~anomaly:injection.Injector.anomaly ~width:window)));
    Test.make ~name:"F3_lnb_span_scoring" (Staged.stage (span lnb));
    Test.make ~name:"F4_markov_span_scoring" (Staged.stage (span markov));
    Test.make ~name:"F5_stide_span_scoring" (Staged.stage (span stide));
    Test.make ~name:"F6_nn_span_scoring" (Staged.stage (span nn));
    Test.make ~name:"F7_lnb_similarity"
      (Staged.stage (fun () ->
           ignore
             (Lane_brodley.similarity [| 0; 1; 2; 3; 4 |] [| 0; 1; 2; 3; 0 |])));
    Test.make ~name:"T1_coverage_algebra"
      (Staged.stage (fun () ->
           ignore
             (List.fold_left Coverage.union Coverage.empty coverages
             |> Coverage.cardinal)));
    Test.make ~name:"T2_ensemble_suppression"
      (Staged.stage (fun () ->
           ignore
             (Ensemble.suppress
                ~primary:(markov_deploy, Trained.alarm_threshold markov)
                ~suppressor:(stide_deploy, Trained.alarm_threshold stide))));
    Test.make ~name:"T3_lnb_stream_scoring"
      (Staged.stage (fun () ->
           ignore (Trained.score_range lnb deploy ~lo:0 ~hi:999)));
    Test.make ~name:"A1_lfc_apply"
      (Staged.stage (fun () ->
           ignore
             (Lfc.apply stide_deploy ~frame:20 ~min_count:2 ~threshold:1.0)));
    Test.make ~name:"A2_nn_training_small"
      (Staged.stage (fun () ->
           ignore
             (Neural.train_with
                { Neural.default_params with Neural.epochs = 10 }
                ~window small_train)));
    Test.make ~name:"A3_markov_training"
      (Staged.stage (fun () ->
           ignore
             (Trained.train (Registry.find_exn "markov") ~window small_train)));
    Test.make ~name:"A4_mfs_search"
      (Staged.stage (fun () ->
           ignore
             (Mfs.candidates suite.Suite.index suite.Suite.alphabet ~size:5
                ~rare_threshold:0.005)));
    (let tstide = Trained.train (Registry.find_exn "tstide") ~window training in
     Test.make ~name:"E1_tstide_span_scoring" (Staged.stage (span tstide)));
    (let hmm = Trained.train (Registry.find_exn "hmm") ~window training in
     Test.make ~name:"E1_hmm_span_scoring" (Staged.stage (span hmm)));
    (* A5: one window lookup, trie descent over the raw trace array vs
       the legacy string-hash probe (Trace.key + Hashtbl).  The probes
       are real windows of the training trace, so both backends hit. *)
    (let data = Trace.raw training in
     let starts = Trace.window_count training ~width:8 in
     let rng = Seqdiv_util.Prng.create ~seed:7 in
     let positions =
       Array.init 64 (fun _ -> Seqdiv_util.Prng.int rng starts)
     in
     Test.make ~name:"A5_trie_lookup"
       (Staged.stage (fun () ->
            Array.iter
              (fun pos -> ignore (Seq_trie.count_at trie data ~pos ~len:8))
              positions)));
    (let hash_db =
       let tbl = Hashtbl.create 4096 in
       Trace.iter_windows training ~width:8 (fun pos ->
           let k = Trace.key training ~pos ~len:8 in
           Hashtbl.replace tbl k
             (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)));
       tbl
     in
     let starts = Trace.window_count training ~width:8 in
     let rng = Seqdiv_util.Prng.create ~seed:7 in
     let positions =
       Array.init 64 (fun _ -> Seqdiv_util.Prng.int rng starts)
     in
     Test.make ~name:"A5_hash_lookup"
       (Staged.stage (fun () ->
            Array.iter
              (fun pos ->
                ignore
                  (Hashtbl.find_opt hash_db (Trace.key training ~pos ~len:8)))
              positions)));
    Test.make ~name:"A6_stide_cell_outcome"
      (Staged.stage (fun () ->
           ignore (Scoring.outcome stide injection)));
    Test.make ~name:"A7_mfs_constructibility_probe"
      (Staged.stage (fun () ->
           ignore
             (Mfs.candidates suite.Suite.index suite.Suite.alphabet ~size:3
                ~rare_threshold:0.005)));
    (let markov_model = Markov.train ~window suite.Suite.training in
     let smoothed = Markov.with_smoothing markov_model ~alpha:10.0 in
     Test.make ~name:"A8_smoothed_span_scoring"
       (Staged.stage (fun () ->
            ignore (Markov.score_range smoothed trace ~lo ~hi))));
    (let rare = Rare_anomaly.build suite in
     let rare_inj = Rare_anomaly.injection rare ~anomaly_size:4 ~window:6 in
     Test.make ~name:"E2_rare_cell_outcome"
       (Staged.stage (fun () -> ignore (Scoring.outcome markov rare_inj))));
    Test.make ~name:"E3_seed_map_shape"
      (Staged.stage (fun () ->
           ignore (Scoring.outcome stide injection)));
    (let session =
       Deployment.deployment_stream suite ~len:400 ~seed:123
     in
     Test.make ~name:"E4_session_classification"
       (Staged.stage (fun () ->
            ignore
              (Session_eval.session_anomalous stide ~threshold:1.0 session))));
  ]

let run_micro suite maps deploy trie =
  let open Bechamel in
  let open Toolkit in
  section "Micro-benchmarks (Bechamel, monotonic clock)";
  let tests = micro_tests suite maps deploy trie in
  let grouped = Test.make_grouped ~name:"seqdiv" tests in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> est
          | Some _ | None -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  let table = Table.make ~columns:[ "kernel"; "time/run" ] in
  List.iter
    (fun (name, ns) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Table.add_row table [ name; human ])
    rows;
  Table.print table

(* --- machine-readable report (--json) ---------------------------------- *)

let write_json path opts engine maps =
  let labelled key pairs =
    Json.List
      (List.rev_map
         (fun (label, v) ->
           Json.Obj [ ("label", Json.String label); (key, Json.Float v) ])
         pairs)
  in
  (* No engine runs in streaming mode: an all-zero stats block would
     read as a measured result, so the report carries [null] instead. *)
  let engine =
    match engine with
    | None -> Json.Null
    | Some engine ->
        let s = Engine.stats engine in
        Json.Obj
          [
            ("train_executed", Json.Int s.Engine.train_executed);
            ("train_cached", Json.Int s.Engine.train_cached);
            ("score_tasks", Json.Int s.Engine.score_tasks);
            ("train_seconds", Json.Float s.Engine.train_seconds);
            ("score_seconds", Json.Float s.Engine.score_seconds);
            ("tries_built", Json.Int s.Engine.tries_built);
            ("trie_hits", Json.Int s.Engine.trie_hits);
            ("trie_nodes", Json.Int s.Engine.trie_nodes);
            ("faults_injected", Json.Int s.Engine.faults_injected);
            ("retries", Json.Int s.Engine.retries);
            ("cells_failed", Json.Int s.Engine.cells_failed);
            ("cells_timed_out", Json.Int s.Engine.cells_timed_out);
            ("cells_resumed", Json.Int s.Engine.cells_resumed);
            ("automata_built", Json.Int s.Engine.automata_built);
            ("automata_hits", Json.Int s.Engine.automata_hits);
          ]
  in
  let map_summary (s : Experiment.summary) =
    Json.Obj
      [
        ("detector", Json.String s.Experiment.detector);
        ("capable", Json.Int s.Experiment.capable);
        ("weak", Json.Int s.Experiment.weak);
        ("blind", Json.Int s.Experiment.blind);
        ("failed", Json.Int s.Experiment.failed);
        ("capable_fraction", Json.Float s.Experiment.capable_fraction);
      ]
  in
  let report =
    Json.Obj
      [
        ( "options",
          Json.Obj
            [
              ("train_len", Json.Int opts.train_len);
              ("background_len", Json.Int opts.background_len);
              ("deploy_len", Json.Int opts.deploy_len);
              ("jobs", Json.Int opts.jobs);
            ] );
        ( "machine",
          Json.Obj
            [
              ("hostname", Json.String (Unix.gethostname ()));
              ("os_type", Json.String Sys.os_type);
              ("word_size", Json.Int Sys.word_size);
              ("ocaml_version", Json.String Sys.ocaml_version);
              ( "recommended_jobs",
                Json.Int (Seqdiv_util.Pool.recommended_jobs ()) );
            ] );
        ("stages", labelled "seconds" !stages);
        ("engine", engine);
        ("measurements", labelled "value" !measurements);
        ( "maps",
          Json.List (List.map (fun m -> map_summary (Experiment.summary m)) maps)
        );
      ]
  in
  let b = Buffer.create 4096 in
  Json.print b report;
  Buffer.add_char b '\n';
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc b);
  Printf.printf "wrote %s\n" path

let () =
  let opts = parse_options () in
  let fault_plan = chaos_plan opts in
  Option.iter
    (fun plan -> Printf.printf "%s\n%!" (Fault_plan.describe plan))
    fault_plan;
  let deadline =
    Option.map
      (fun budget_ms ->
        Seqdiv_util.Deadline.spec ~clock:Unix.gettimeofday ~budget_ms)
      opts.deadline_ms
  in
  let engine =
    Engine.create ~clock:Unix.gettimeofday ~jobs:opts.jobs ?fault_plan
      ?deadline ()
  in
  if opts.streaming then begin
    run_streaming opts;
    Option.iter (fun path -> write_json path opts None []) opts.json
  end
  else if opts.adaptive then begin
    run_adaptive opts;
    Option.iter (fun path -> write_json path opts None []) opts.json
  end
  else if opts.grid_only then begin
    let _suite, maps = run_grid opts engine in
    if opts.trace then
      Format.eprintf "%a@." Engine.pp_stats (Engine.stats engine);
    Option.iter (fun path -> write_json path opts (Some engine) maps) opts.json
  end
  else begin
    let suite, maps, deploy, trie = run_paper opts engine in
    if opts.micro then run_micro suite maps deploy trie;
    if opts.trace then
      Format.eprintf "%a@." Engine.pp_stats (Engine.stats engine);
    Option.iter (fun path -> write_json path opts (Some engine) maps) opts.json
  end;
  print_newline ()
