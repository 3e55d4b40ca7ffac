(* perfbench: the repository benchmark's measurement program.

   perfbench --workload W --seed N --seconds S --trace 0|1 --bin SEQDIV
             --work-dir DIR [--journal-root DIR] [--commit C]
             [--source-digest D] [--inject corrupt-reference|reuse-batch-id]

   Prints one context line, then as its last line one JSON object with
   the keys correct, attempted, failed and metrics: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1.  Exit
   codes: 0 measured and correct, 1 a check failed (result printed with
   correct = false), 2 usage or internal error, 3 refused to measure
   (no result).  perfbench/run.py builds the program and runs it; see
   perfbench/README.md. *)

open Common

let workloads = [ "paper-maps"; "serve-static"; "serve-durable"; "serve-adaptive" ]

(* name, unit: what [result] validates and prints.  BENCHMARK.json holds
   the descriptions, directions and bounds. *)
let end_to_end =
  [ ("setup_s", "s"); ("throughput_sym_s", "sym/s"); ("p50_ms", "ms"); ("peak_rss_mb", "MB") ]

let per_layer =
  [
    ("kernel.ns_per_sym", "ns/sym");
    ("online.ns_per_sym", "ns/sym");
    ("online.words_per_sym", "words/sym");
    ("online_adaptive.ns_per_sym", "ns/sym");
    ("online_adaptive.words_per_sym", "words/sym");
    ("quantile.observe_ns", "ns");
    ("quantile.tuples", "count");
    ("adaptive.token_bytes", "bytes");
    ("adaptive.to_string_us", "us");
    ("session_table.ns_per_sym", "ns/sym");
    ("session_table.batch_p50_us", "us");
    ("session_table.batch_p99_us", "us");
    ("session_table.words_per_sym", "words/sym");
    ("session_table.bytes_resident", "bytes");
    ("session_table.replayed", "count");
    ("shard_journal.commit_p50_us", "us");
    ("shard_journal.commit_p99_us", "us");
    ("shard_journal.bytes_per_batch", "bytes");
    ("shard_journal.compactions", "count");
    ("frame.encode_ns_per_sym.binary", "ns/sym");
    ("frame.decode_ns_per_sym.binary", "ns/sym");
    ("frame.decode_words_per_sym.binary", "words/sym");
    ("frame.bytes_per_sym.binary", "bytes/sym");
    ("frame.encode_ns_per_sym.ndjson", "ns/sym");
    ("frame.decode_ns_per_sym.ndjson", "ns/sym");
    ("frame.decode_words_per_sym.ndjson", "words/sym");
    ("frame.bytes_per_sym.ndjson", "bytes/sym");
    ("serve.busy_frac", "ratio");
    ("serve.batch_p50_us", "us");
    ("serve.batch_p99_us", "us");
    ("serve.queue_depth_max", "count");
    ("serve.rejected", "count");
    ("serve.applied_ratio", "ratio");
    ("serve.wire_us", "us");
    ("client.p90_ms", "ms");
    ("client.p99_ms", "ms");
    ("suite.build_s", "s");
    ("engine.train_s.stide", "s");
    ("engine.train_s.markov", "s");
    ("engine.train_s.lnb", "s");
    ("engine.train_s.nn", "s");
    ("engine.score_s", "s");
    ("engine.trie_hit_ratio", "ratio");
    ("pool.busy_frac", "ratio");
    ("loadgen.late_ms_p99", "ms");
    ("loadgen.sent", "count");
  ]

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : int;
  mutable trace : bool;
  mutable bin : string;
  mutable work_dir : string;
  mutable journal_root : string option;
  mutable commit : string;
  mutable source_digest : string;
  mutable inject : string option;
}

let usage msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

let parse argv =
  let a =
    { workload = ""; seed = 0; seconds = 10; trace = false; bin = ""; work_dir = "";
      journal_root = None; commit = "unknown"; source_digest = "unknown"; inject = None }
  in
  let int_arg k v = match int_of_string_opt v with Some i -> i | None -> usage (k ^ " wants an integer") in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: r -> a.workload <- v; go r
    | "--seed" :: v :: r -> a.seed <- int_arg "--seed" v; go r
    | "--seconds" :: v :: r -> a.seconds <- int_arg "--seconds" v; go r
    | "--trace" :: v :: r -> a.trace <- int_arg "--trace" v <> 0; go r
    | "--bin" :: v :: r -> a.bin <- v; go r
    | "--work-dir" :: v :: r -> a.work_dir <- v; go r
    | "--journal-root" :: v :: r -> a.journal_root <- Some v; go r
    | "--commit" :: v :: r -> a.commit <- v; go r
    | "--source-digest" :: v :: r -> a.source_digest <- v; go r
    | "--inject" :: v :: r -> a.inject <- Some v; go r
    | x :: _ -> usage ("unknown argument " ^ x)
  in
  go (List.tl (Array.to_list argv));
  if not (List.mem a.workload workloads) then
    usage ("--workload must be one of " ^ String.concat ", " workloads);
  if a.seconds < 1 then usage "--seconds must be positive";
  if a.work_dir = "" || a.bin = "" then usage "--bin and --work-dir are required";
  (match a.inject with
  | None | Some ("corrupt-reference" | "reuse-batch-id") -> ()
  | Some x -> usage ("unknown --inject " ^ x));
  a

let metric_names trace = if trace then per_layer else end_to_end

(* Every declared metric, in declaration order; a layer the workload
   does not exercise reads 0 (per-layer only). *)
let result ~trace ~attempted ~failed measured =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n (metric_names trace)) then
        failwith ("undeclared metric " ^ n))
    measured;
  let metrics =
    List.map
      (fun (n, u) ->
        let v =
          match List.assoc_opt n measured with
          | Some v -> v
          | None when trace -> 0.0
          | None -> failwith ("end-to-end metric not measured: " ^ n)
        in
        (n, Obj [ ("value", Float v); ("unit", String u) ]))
      (metric_names trace)
  in
  Obj
    [
      ("correct", Bool true);
      ("attempted", Int attempted);
      ("failed", Int failed);
      ("metrics", Obj metrics);
    ]

let () =
  let a = parse Sys.argv in
  mkdir_p a.work_dir;
  let journal_root = Option.value a.journal_root ~default:(Filename.concat a.work_dir "journal") in
  mkdir_p journal_root;
  (* The untraced run a traced run is compared with: same workload, seed
     and length. *)
  let wall_file =
    Filename.concat a.work_dir
      (Printf.sprintf "untraced-wall-%s-%d-%d" a.workload a.seed a.seconds)
  in
  let corrupt = a.inject = Some "corrupt-reference" in
  let t0 = now () in
  let outcome =
    try
      Ok
        (match a.workload with
        | "paper-maps" ->
            if a.trace then Paper_maps.run_traced ~seed:a.seed ~corrupt
            else Paper_maps.run ~seed:a.seed ~seconds:(float_of_int a.seconds) ~corrupt
        | w ->
            let spec =
              List.find
                (fun s -> s.Serve_workload.name = w)
                Serve_workload.specs
            in
            Serve_workload.run spec
              {
                Serve_workload.bin = a.bin;
                work_dir = a.work_dir;
                journal_root;
                seed = a.seed;
                seconds = float_of_int a.seconds;
                corrupt_reference = corrupt;
                reuse_batch_id = a.inject = Some "reuse-batch-id";
              }
              ~traced:a.trace)
    with
    | Check_failed msg -> Error msg
    | Refused msg ->
        prerr_endline ("perfbench: refusing to measure: " ^ msg);
        exit 3
  in
  let wall = now () -. t0 in
  let overhead =
    if not a.trace then begin
      (match outcome with
      | Ok _ ->
          let oc = open_out wall_file in
          Printf.fprintf oc "%.17g\n" wall;
          close_out oc
      | Error _ -> ());
      Null
    end
    else
      match float_of_string_opt (String.trim (read_file wall_file)) with
      | Some w -> Float (wall -. w)
      | None | (exception Sys_error _) -> Null
  in
  if a.trace then Layers.write_spans (Filename.concat a.work_dir ("spans-" ^ a.workload ^ ".json"));
  let context =
    Obj
      ([
         ("workload", String a.workload);
         ("seed", Int a.seed);
         ("seconds", Int a.seconds);
         ("trace", Bool a.trace);
         ("nproc", Int (Domain.recommended_domain_count ()));
         ("ocaml", String Sys.ocaml_version);
         ("commit", String a.commit);
         ("source_digest", String a.source_digest);
         ("wall_s", Float wall);
         ("trace_overhead_s", overhead);
         ("journal_fstype", String (fs_type journal_root));
       ]
      @ match outcome with Ok (_, _, _, samples) -> samples | Error _ -> [])
  in
  print_endline (to_string (Obj [ ("context", context) ]));
  match outcome with
  | Ok (attempted, failed, metrics, _) ->
      print_endline (to_string (result ~trace:a.trace ~attempted ~failed metrics))
  | Error msg ->
      prerr_endline ("perfbench: check failed: " ^ msg);
      print_endline
        (to_string
           (Obj
              [
                ("correct", Bool false);
                ("attempted", Int 1);
                ("failed", Int 1);
                ("metrics", Obj []);
              ]));
      exit 1
