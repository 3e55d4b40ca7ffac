(* Golden-file regression tests: the rendered outputs — ascii maps,
   CSV export, and the T1 coverage table — of three small grids
   (healthy, fatal chaos, deadline timeout), plus the on-disk bytes of
   both journal formats, compared byte-for-byte against fixtures under
   [test/golden/].  Every scenario is fully deterministic (fixed suite
   seed, stateless fault plan, virtual-clock deadline), so any byte of
   drift is a real behaviour change.

   To update the fixtures after an intentional change, run
   [scripts/promote-golden.sh] and review the diff like any other code. *)

open Seqdiv_stream
open Seqdiv_core
open Seqdiv_detectors
open Seqdiv_report
open Seqdiv_util
open Seqdiv_test_support

let golden_dir =
  (* The promote script points this at the source tree; under
     [dune runtest] the fixtures are staged next to the executable. *)
  match Sys.getenv_opt "SEQDIV_GOLDEN_DIR" with
  | Some d -> d
  | None -> "golden"

let grid ?(compile = false) ?fault_plan ?deadline names =
  let e = Engine.create ~jobs:1 ~compile ?fault_plan ?deadline () in
  Experiment.all_maps ~engine:e (tiny_suite ())
    (List.map Registry.find_exn names)

let render maps =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "== ascii ==\n";
  List.iter
    (fun m ->
      Buffer.add_string buf (Ascii_map.render m);
      Buffer.add_char buf '\n')
    maps;
  Buffer.add_string buf "== csv ==\n";
  Buffer.add_string buf
    (Csv.of_rows
       ~header:[ "detector"; "anomaly_size"; "window"; "outcome"; "max_response" ]
       (List.concat_map Csv.map_rows maps));
  Buffer.add_string buf "== t1 ==\n";
  Buffer.add_string buf (Paper.table1 maps);
  Buffer.contents buf

let gen_healthy ~compile () = render (grid ~compile [ "stide"; "markov" ])

let gen_chaos ~compile () =
  (* A fatal fault plan: failures fire from the stateless per-key hash,
     so the same cells fail with the same rendered faults every run. *)
  let plan = Fault_plan.of_seed ~transient_rate:0.0 ~fatal_rate:0.1 ~seed:7 () in
  render (grid ~compile ~fault_plan:plan [ "stide"; "markov" ])

let gen_timeout ~compile () =
  (* Virtual clock at 1 ms per read, 12 ms budget.  Legitimate tasks of
     the tiny suite read the clock under ten times (trie scan
     30k/4096 ≈ 8, score loops ≤ 2), so they all finish; the neural
     detector checkpoints every training epoch and dies at epoch ~11 of
     400 — every nn cell degrades to Failed/timeout, deterministically,
     with no wall-clock sleeping. *)
  let clock = Fake_clock.create ~step_ms:1.0 in
  let deadline = Deadline.spec ~clock:(Fake_clock.clock clock) ~budget_ms:12 in
  render (grid ~compile ~deadline [ "stide"; "nn" ])

let scenarios =
  [ ("healthy", gen_healthy); ("chaos", gen_chaos); ("timeout", gen_timeout) ]

(* --- journal formats ---------------------------------------------------- *)

(* Each journal fixture is the file's exact bytes after every flush or
   commit, headed by the flush-path counters, so a change to the record
   codec, the header, the digest or the append/compaction policy shows
   as a diff. *)

let with_temp_journal f =
  let path = Filename.temp_file "seqdiv-golden" ".journal" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

let snapshot buf path label ~appends ~compactions =
  Printf.bprintf buf "== %s (appends %d, compactions %d) ==\n" label appends
    compactions;
  Buffer.add_string buf (In_channel.with_open_bin path In_channel.input_all)

let gen_cell_journal () =
  with_temp_journal (fun path ->
      let buf = Buffer.create 2048 in
      let j =
        Journal.start ~compact_factor:1.5
          ~context:"golden seed=2005 train=30000 background=1500" path
      in
      let cell detector window anomaly_size outcome =
        Journal.record j
          { Journal.seed = 2005; detector; window; anomaly_size; outcome }
      in
      let flush label =
        Journal.flush j;
        snapshot buf path label ~appends:(Journal.appends j)
          ~compactions:(Journal.compactions j)
      in
      cell "stide" 4 2 (Outcome.Capable 1.0);
      cell "markov" 4 2 (Outcome.Weak 0.375);
      flush "first flush";
      cell "stide" 5 3 Outcome.Blind;
      flush "append";
      cell "markov" 4 2 (Outcome.Capable 0.875);
      flush "re-recorded key";
      cell "stide" 4 2 (Outcome.Weak 0.1);
      flush "compaction";
      Buffer.contents buf)

let gen_shard_journal () =
  with_temp_journal (fun path ->
      let buf = Buffer.create 2048 in
      let j =
        Shard_journal.start ~compact_factor:2.0 ~batch_history:2
          ~context:"serve model=golden depth=6 shards=1 shard=0" path
      in
      let commit label =
        Shard_journal.commit j;
        snapshot buf path label ~appends:(Shard_journal.appends j)
          ~compactions:(Shard_journal.compactions j)
      in
      let controller =
        Adaptive_threshold.create
          (Adaptive_threshold.config ~budget:0.25 ~warmup:4 ~refresh:2
             ~initial:0.5 ())
      in
      let scores = [ 0.1; 0.9; 0.3; 0.7; 0.2; 0.8 ] in
      List.iter (fun s -> ignore (Adaptive_threshold.step controller s)) scores;
      let incident =
        {
          Frame.first_start = 95;
          last_start = 103;
          cover_from = 95;
          cover_to = 108;
          alarms = 4;
          peak_score = 0.25;
        }
      in
      let session ?open_incident ?adaptive id consumed state =
        Shard_journal.record_session j
          {
            Shard_journal.js_session = id;
            js_consumed = consumed;
            js_state = state;
            js_open = open_incident;
            js_adaptive = adaptive;
          }
      in
      let batch id incidents =
        Shard_journal.record_batch j
          {
            Shard_journal.jb_id = id;
            jb_shard = 0;
            jb_events = 3;
            jb_incidents = incidents;
          }
      in
      let adaptive = Adaptive_threshold.to_string controller in
      session 1 40 7;
      session 2 110 42 ~open_incident:incident ~adaptive;
      batch 0 [ Frame.Opened { session = 2; position = 95 } ];
      commit "first commit";
      Shard_journal.record_end j ~session:1;
      session 2 130 11 ~adaptive;
      batch 1 [ Frame.Closed { session = 2; incident } ];
      commit "append";
      session 2 150 12 ~adaptive;
      batch 2 [];
      commit "compaction";
      Buffer.contents buf)

let journal_fixtures =
  [ ("cell_journal", gen_cell_journal); ("shard_journal", gen_shard_journal) ]

let fixture name = Filename.concat golden_dir (name ^ ".txt")

let promote () =
  List.iter
    (fun (name, gen) ->
      let path = fixture name in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (gen ()));
      Printf.printf "promoted %s\n" path)
    (List.map (fun (name, gen) -> (name, gen ~compile:false)) scenarios
    @ journal_fixtures)

let check_golden name gen () =
  let path = fixture name in
  if not (Sys.file_exists path) then
    Alcotest.failf "missing fixture %s — run scripts/promote-golden.sh" path;
  let expected = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string)
    (Printf.sprintf "%s grid matches %s byte-for-byte" name path)
    expected (gen ())

let () =
  match Sys.getenv_opt "SEQDIV_GOLDEN_PROMOTE" with
  | Some _ -> promote ()
  | None ->
      Alcotest.run "golden"
        [
          ( "grids",
            List.map
              (fun (name, gen) ->
                Alcotest.test_case name `Slow
                  (check_golden name (gen ~compile:false)))
              scenarios );
          (* The compiled fast path must leave every fixture untouched —
             same bytes under health, chaos and timeout.  Fixtures are
             only ever promoted from the reference (uncompiled) path. *)
          ( "grids-compiled",
            List.map
              (fun (name, gen) ->
                Alcotest.test_case name `Slow
                  (check_golden name (gen ~compile:true)))
              scenarios );
          ( "journals",
            List.map
              (fun (name, gen) ->
                Alcotest.test_case name `Quick (check_golden name gen))
              journal_fixtures );
        ]
