(* The journal encoders: byte identity with the Printf encoders the
   formats were defined by, canonical decoding, and the token encoder's
   allocation budget.

   [Ref] keeps the Printf encoders as the reference.  The shipped
   encoders write through Seqdiv_util.Ascii and must reproduce them
   byte for byte on every input, including the corners Printf handles
   for free: negative ints, min_int/max_int, -0.0, infinities,
   subnormals and NaN bit patterns.  The decoders must accept exactly
   what the encoders write, so a token or body that decodes re-encodes
   to itself. *)

open Seqdiv_stream
open Seqdiv_core
open Seqdiv_test_support
module Ascii = Seqdiv_util.Ascii

(* --- reference encoders -------------------------------------------------- *)

module Ref = struct
  let hex64 x = Printf.sprintf "%016Lx" x
  let int n = Printf.sprintf "%d" n
  let bits f = hex64 (Int64.bits_of_float f)

  (* The full state a sketch token carries. *)
  type sketch = {
    eps : float;
    n : int;
    since : int;
    tuples : (float * int * int) list;
  }

  let quantile s =
    let buf = Buffer.create 64 in
    Buffer.add_string buf
      (Printf.sprintf "gk1:%s:%d:%d:%d:" (bits s.eps) s.n s.since
         (List.length s.tuples));
    List.iteri
      (fun i (v, g, d) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "%s.%d.%d" (bits v) g d))
      s.tuples;
    Buffer.contents buf

  let adaptive ~windows ~alarms ~adjustments ~threshold sketch =
    Printf.sprintf "at1:%d:%d:%d:%016Lx:%s" windows alarms adjustments
      (Int64.bits_of_float threshold)
      (quantile sketch)

  let incident_token (i : Frame.incident) =
    Printf.sprintf "%d:%d:%d:%d:%d:%016Lx" i.Frame.first_start
      i.Frame.last_start i.Frame.cover_from i.Frame.cover_to i.Frame.alarms
      (Int64.bits_of_float i.Frame.peak_score)

  let session_body (s : Shard_journal.session_state) =
    let base =
      Printf.sprintf "s %d %d %d %s" s.Shard_journal.js_session
        s.Shard_journal.js_consumed s.Shard_journal.js_state
        (match s.Shard_journal.js_open with
        | None -> "-"
        | Some i -> incident_token i)
    in
    match s.Shard_journal.js_adaptive with
    | None -> base
    | Some token -> base ^ " " ^ token

  let ended_body session = Printf.sprintf "e %d" session

  let incident_event_token = function
    | Frame.Opened { session; position } ->
        Printf.sprintf "o:%d:%d" session position
    | Frame.Closed { session; incident } ->
        Printf.sprintf "c:%d:%s" session (incident_token incident)

  let batch_body (b : Shard_journal.batch_record) =
    Printf.sprintf "b %d %d %d %d%s" b.Shard_journal.jb_id
      b.Shard_journal.jb_shard b.Shard_journal.jb_events
      (List.length b.Shard_journal.jb_incidents)
      (String.concat ""
         (List.map
            (fun e -> " " ^ incident_event_token e)
            b.Shard_journal.jb_incidents))

  let commit_body count = Printf.sprintf "k %d" count

  let render_incident_event = function
    | Frame.Opened { session; position } ->
        Printf.sprintf "session %d opened %d" session position
    | Frame.Closed { session; incident = i } ->
        Printf.sprintf
          "session %d closed first=%d last=%d cover=%d..%d alarms=%d \
           peak=%016Lx"
          session i.Frame.first_start i.Frame.last_start i.Frame.cover_from
          i.Frame.cover_to i.Frame.alarms
          (Int64.bits_of_float i.Frame.peak_score)
end

(* --- generators ---------------------------------------------------------- *)

let gen_int =
  QCheck.Gen.(
    frequency
      [
        ( 2,
          oneofl
            [ 0; 1; -1; 9; 10; -9; -10; 99; 100; min_int; max_int;
              min_int + 1; max_int - 1 ] );
        (3, int_range (-100_000) 100_000);
        (3, int);
      ])

let gen_nat = QCheck.Gen.map (fun i -> i land max_int) gen_int

let special_floats =
  [ 0.0; -0.0; infinity; neg_infinity; 5e-324; -5e-324;
    Float.min_float /. 3.0; Float.min_float; max_float; -.max_float; 1.0;
    0.25; -1.5 ]

(* Any bit pattern, NaNs included. *)
let gen_float =
  QCheck.Gen.(
    frequency
      [
        (2, oneofl (Float.nan :: special_floats));
        (3, map Int64.float_of_bits int64);
        (2, float);
      ])

let gen_non_nan =
  QCheck.Gen.map (fun f -> if Float.is_nan f then -0.0 else f) gen_float

let gen_count =
  QCheck.Gen.(
    frequency
      [ (3, int_range 1 9); (3, int_range 10 99_999); (1, oneofl [ 1_000_000_000 ]) ])

(* A valid sketch state: non-decreasing values, every g >= 1 and n the
   sum of the g's, so the decoder must accept it. *)
let gen_sketch ~eps =
  QCheck.Gen.(
    eps >>= fun eps ->
    list_size (int_range 0 40)
      (triple gen_non_nan gen_count
         (frequency [ (3, int_range 0 99); (2, gen_nat) ]))
    >>= fun raw ->
    let values = List.sort Float.compare (List.map (fun (v, _, _) -> v) raw) in
    let tuples = List.map2 (fun v (_, g, d) -> (v, g, d)) values raw in
    let n = List.fold_left (fun acc (_, g, _) -> acc + g) 0 tuples in
    map (fun since -> { Ref.eps; n; since; tuples }) gen_nat)

(* Quantile accepts any non-NaN epsilon in (0, 1). *)
let gen_quantile_eps =
  QCheck.Gen.(
    frequency
      [
        (2, oneofl [ 0.0125; 0.04; 0.4999; 0.75; 5e-324; 1e-300 ]);
        (3, map (fun f -> if f <= 0.0 then 0.5 else f) (float_bound_exclusive 1.0));
      ])

(* Adaptive_threshold.config wants epsilon in (0, 0.5). *)
let gen_config_eps =
  QCheck.Gen.(
    frequency
      [
        (2, oneofl [ 0.0125; 0.04; 0.4999; 5e-324 ]);
        (3, map (fun f -> if f <= 0.0 then 0.25 else f) (float_bound_exclusive 0.5));
      ])

let print_sketch s = Ref.quantile s

let arb_sketch = QCheck.make ~print:print_sketch (gen_sketch ~eps:gen_quantile_eps)

type controller = {
  sketch : Ref.sketch;
  alarms : int;
  adjustments : int;
  threshold : float;
}

let cfg_of eps = Adaptive_threshold.config ~budget:0.05 ~epsilon:eps ~initial:0.0 ()

let ref_controller c =
  Ref.adaptive ~windows:c.sketch.Ref.n ~alarms:c.alarms
    ~adjustments:c.adjustments ~threshold:c.threshold c.sketch

let arb_controller =
  QCheck.make ~print:ref_controller
    QCheck.Gen.(
      gen_sketch ~eps:gen_config_eps >>= fun sketch ->
      map3
        (fun alarms adjustments threshold ->
          { sketch; alarms = alarms mod (sketch.Ref.n + 1); adjustments; threshold })
        gen_nat gen_nat gen_non_nan)

let gen_incident =
  QCheck.Gen.(
    map
      (fun ((first_start, last_start, cover_from), (cover_to, alarms, peak_score)) ->
        { Frame.first_start; last_start; cover_from; cover_to; alarms; peak_score })
      (pair (triple gen_int gen_int gen_int) (triple gen_int gen_int gen_float)))

let gen_incident_event =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun session position -> Frame.Opened { session; position })
          gen_int gen_int;
        map2
          (fun session incident -> Frame.Closed { session; incident })
          gen_int gen_incident;
      ])

let gen_token =
  QCheck.Gen.(
    string_size
      ~gen:(oneofl (List.of_seq (String.to_seq "0123456789abcdef:.,at")))
      (int_range 0 60))

let gen_session =
  QCheck.Gen.(
    map
      (fun ((js_session, js_consumed, js_state), (js_open, js_adaptive)) ->
        { Shard_journal.js_session; js_consumed; js_state; js_open; js_adaptive })
      (pair (triple gen_int gen_int gen_int) (pair (opt gen_incident) (opt gen_token))))

let gen_batch =
  QCheck.Gen.(
    map
      (fun ((jb_id, jb_shard, jb_events), jb_incidents) ->
        { Shard_journal.jb_id; jb_shard; jb_events; jb_incidents })
      (pair
         (triple gen_int gen_int gen_int)
         (list_size (int_range 0 5) gen_incident_event)))

type record =
  | Session of Shard_journal.session_state
  | End of int
  | Batch of Shard_journal.batch_record

let ref_body = function
  | Session s -> Ref.session_body s
  | End session -> Ref.ended_body session
  | Batch b -> Ref.batch_body b

let gen_record =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun s -> Session s) gen_session);
        (1, map (fun s -> End s) gen_int);
        (2, map (fun b -> Batch b) gen_batch);
      ])

let arb_records =
  QCheck.make
    ~print:(fun rs -> String.concat "\n" (List.map ref_body rs))
    QCheck.Gen.(list_size (int_range 1 20) gen_record)

(* --- the writer ---------------------------------------------------------- *)

let render add x =
  let b = Buffer.create 4 in
  add b x;
  Buffer.contents b

let arb_int = QCheck.make ~print:string_of_int gen_int

let prop_add_int n = render Ascii.add_int n = Ref.int n

let prop_add_hex64 x = render Ascii.add_hex64 x = Ref.hex64 x

let prop_add_float_bits f = render Ascii.add_float_bits f = Ref.bits f

let prop_parse_nat n =
  Ascii.parse_nat (Ref.int n) = if n >= 0 then Some n else None

let prop_parse_hex64 x = Ascii.parse_hex64 (Ref.hex64 x) = Some x

let test_writer_corners () =
  List.iter
    (fun n -> Alcotest.(check string) (Ref.int n) (Ref.int n) (render Ascii.add_int n))
    [ 0; 1; -1; 10; -10; min_int; max_int; min_int + 1 ];
  List.iter
    (fun f ->
      Alcotest.(check string) (Ref.bits f) (Ref.bits f) (render Ascii.add_float_bits f))
    (Float.nan :: special_floats);
  List.iter
    (fun x ->
      Alcotest.(check string) (Ref.hex64 x) (Ref.hex64 x) (render Ascii.add_hex64 x))
    [ 0L; -1L; Int64.min_int; Int64.max_int; 0xffff_ffffL; 0x1_0000_0000L ]

let test_parse_rejects () =
  List.iter
    (fun s ->
      match Ascii.parse_nat s with
      | None -> ()
      | Some n -> Alcotest.failf "parse_nat accepted %S as %d" s n)
    [ ""; "+5"; "-5"; "-0"; "05"; "00"; "0x10"; "0b1"; "0o7"; "1_000"; " 1";
      "1 "; "1e3"; "4611686018427387904"; "99999999999999999999" ];
  List.iter
    (fun s ->
      match Ascii.parse_hex64 s with
      | None -> ()
      | Some _ -> Alcotest.failf "parse_hex64 accepted %S" s)
    [ ""; "3FD0000000000000"; "3fd0_00000000000"; "0x3fd00000000000";
      "3fd000000000000"; "03fd0000000000000"; "+3fd000000000000";
      "3fd000000000000g"; " 3fd000000000000" ];
  Alcotest.(check (option int)) "max_int" (Some max_int)
    (Ascii.parse_nat (string_of_int max_int));
  Alcotest.(check (option int)) "zero" (Some 0) (Ascii.parse_nat "0")

(* --- tokens -------------------------------------------------------------- *)

let appended add x =
  let b = Buffer.create 8 in
  Buffer.add_string b "prefix|";
  add b x;
  Buffer.contents b

let prop_quantile_identity s =
  let tok = Ref.quantile s in
  match Quantile.of_string tok with
  | None -> QCheck.Test.fail_reportf "valid token rejected: %s" tok
  | Some q ->
      Quantile.to_string q = tok
      && appended Quantile.add_to_buffer q = "prefix|" ^ tok

let prop_adaptive_identity c =
  let tok = ref_controller c in
  match Adaptive_threshold.of_string (cfg_of c.sketch.Ref.eps) tok with
  | None -> QCheck.Test.fail_reportf "valid token rejected: %s" tok
  | Some t ->
      Adaptive_threshold.to_string t = tok
      && appended Adaptive_threshold.add_to_buffer t = "prefix|" ^ tok

(* Controllers built by observation, too: read a token back with the
   liberal stdlib parsers, and the reference must write the same bytes
   for what was read. *)
let parse_liberally tok =
  let bits h = Int64.float_of_bits (Int64.of_string ("0x" ^ h)) in
  let tuple t =
    match String.split_on_char '.' t with
    | [ v; g; d ] -> (bits v, int_of_string g, int_of_string d)
    | _ -> Alcotest.failf "bad tuple %S" t
  in
  match String.split_on_char ':' tok with
  | [ "at1"; w; a; adj; cur; "gk1"; eps; n; since; _len; tuples ] ->
      let tuples =
        if tuples = "" then [] else List.map tuple (String.split_on_char ',' tuples)
      in
      ( int_of_string w,
        int_of_string a,
        int_of_string adj,
        bits cur,
        { Ref.eps = bits eps; n = int_of_string n; since = int_of_string since; tuples } )
  | _ -> Alcotest.failf "bad token %S" tok

let scores_arb =
  QCheck.(
    list_of_size Gen.(0 -- 400)
      (make
         Gen.(
           frequency
             [
               (1, oneofl special_floats);
               (6, map (fun i -> float_of_int i /. 7.0) (int_range (-300) 300));
             ])))

let prop_observed_tokens scores =
  let cfg = Adaptive_threshold.config ~budget:0.05 ~warmup:8 ~refresh:4 ~initial:0.0 () in
  let t = Adaptive_threshold.create cfg in
  List.iter (fun s -> ignore (Adaptive_threshold.step t s)) scores;
  let tok = Adaptive_threshold.to_string t in
  let windows, alarms, adjustments, threshold, sketch = parse_liberally tok in
  Ref.adaptive ~windows ~alarms ~adjustments ~threshold sketch = tok
  &&
  match Adaptive_threshold.of_string cfg tok with
  | Some t' -> Adaptive_threshold.equal t t'
  | None -> false

(* --- journal bodies -------------------------------------------------------

   Through the public API: record, commit, and compare the file's lines
   with the reference bodies, digested by the test-support FNV oracle.
   A fresh journal's first commit rewrites; with compaction out of
   reach the next one appends, and with [compact_factor] 0 every commit
   rewrites. *)

let temp_path () = Filename.temp_file "seqdiv-encoders" ".journal"

let with_temp f =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let context = "encoder oracle"
let magic = "seqdiv-shard-journal v1"

let file_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let record j = function
  | Session s -> Shard_journal.record_session j s
  | End session -> Shard_journal.record_end j ~session
  | Batch b -> Shard_journal.record_batch j b

let seed_session =
  {
    Shard_journal.js_session = 0;
    js_consumed = 0;
    js_state = 0;
    js_open = None;
    js_adaptive = None;
  }

let prop_append_bodies records =
  with_temp (fun path ->
      let j = Shard_journal.start ~compact_factor:1e9 ~context path in
      Shard_journal.record_session j seed_session;
      Shard_journal.commit j;
      List.iter (record j) records;
      Shard_journal.commit j;
      let expected =
        List.map ref_body records @ [ Ref.commit_body (List.length records) ]
      in
      match file_lines path with
      | _magic :: _context :: _seed :: _commit :: appended ->
          appended = List.map digested_line expected
      | _ -> false)

let prop_rewrite_bodies records =
  with_temp (fun path ->
      let j = Shard_journal.start ~compact_factor:0.0 ~context path in
      List.iter (record j) records;
      Shard_journal.commit j;
      let bodies =
        List.map Ref.session_body (Shard_journal.sessions j)
        @ List.map Ref.batch_body (Shard_journal.batches j)
      in
      let expected = bodies @ [ Ref.commit_body (List.length bodies) ] in
      file_lines path
      = magic :: ("context " ^ context) :: List.map digested_line expected)

let prop_render_incident_event e =
  Frame.render_incident_event e = Ref.render_incident_event e

(* --- canonical decoding -------------------------------------------------- *)

let replace_first s sub by =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then Alcotest.failf "%S does not occur in %S" sub s
    else if String.sub s i m = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

let expect_rejected what decode bad =
  List.iter
    (fun s ->
      match decode s with
      | None -> ()
      | Some _ -> Alcotest.failf "%s accepted the non-canonical %S" what s)
    bad

(* gk1:3fb999999999999a:12:3:3:
     8000000000000000.1.0,3fe0000000000000.10.1,7ff0000000000000.1.10
   (one line) *)
let valid_sketch =
  {
    Ref.eps = 0.1;
    n = 12;
    since = 3;
    tuples = [ (-0.0, 1, 0); (0.5, 10, 1); (infinity, 1, 10) ];
  }

let valid_controller =
  { sketch = valid_sketch; alarms = 1; adjustments = 10; threshold = 0.5 }

(* The same value, spelled as [int_of_string] or [Int64.of_string]
   would also have read it. *)
let respellings_of_12 = [ ":+12:"; ":012:"; ":0x0c:"; ":0b1100:"; ":0o14:"; ":1_2:" ]

let sketch_variants tok =
  List.map (replace_first tok ":12:") respellings_of_12
  @ [
      replace_first tok "3fb999999999999a" "3FB999999999999A";
      replace_first tok "3fb999999999999a" "3fb9_99999999999a";
      replace_first tok "3fb999999999999a" "03fb999999999999a";
      replace_first tok ":3:3:" ":+3:3:";
      replace_first tok ":3:3:" ":3:03:";
      replace_first tok ".10.1," ".0x0a.1,";
      replace_first tok ".10.1," ".+10.1,";
      replace_first tok ".10.1," ".1_0.1,";
      replace_first tok ".10.1," ".10.01,";
      replace_first tok "3fe0000000000000" "3FE0000000000000";
      replace_first tok "7ff0000000000000.1.10" "7ff0000000000000.1.1_0";
    ]

let test_quantile_non_canonical () =
  let tok = Ref.quantile valid_sketch in
  Alcotest.(check (option string)) "control decodes to itself" (Some tok)
    (Option.map Quantile.to_string (Quantile.of_string tok));
  expect_rejected "Quantile.of_string" Quantile.of_string (sketch_variants tok)

let test_adaptive_non_canonical () =
  let cfg = cfg_of 0.1 in
  let tok = ref_controller valid_controller in
  let decode = Adaptive_threshold.of_string cfg in
  Alcotest.(check (option string)) "control decodes to itself" (Some tok)
    (Option.map Adaptive_threshold.to_string (decode tok));
  expect_rejected "Adaptive_threshold.of_string" decode
    ([
       replace_first tok "at1:12:" "at1:+12:";
       replace_first tok "at1:12:" "at1:012:";
       replace_first tok ":1:10:" ":0x1:10:";
       replace_first tok ":1:10:" ":1:1_0:";
       replace_first tok ":1:10:" ":1:+10:";
       replace_first tok "3fe0000000000000:gk1" "3FE0000000000000:gk1";
       replace_first tok "3fe0000000000000:gk1" "3fe0_00000000000:gk1";
     ]
    @ List.map (fun v -> "at1:12:1:10:3fe0000000000000:" ^ v)
        (sketch_variants (Ref.quantile valid_sketch)))

(* Hand-written journal files: a committed group of canonical bodies
   recovers whole; the same group with one field respelled is dropped
   whole, as is a canonical body under a non-canonical digest. *)
let dropped_after_resume lines =
  with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          List.iter
            (fun l ->
              Out_channel.output_string oc l;
              Out_channel.output_char oc '\n')
            (magic :: ("context " ^ context) :: lines));
      Shard_journal.dropped_lines
        (Shard_journal.start ~resume:true ~context path))

let canonical_group =
  [
    "s 7 100 42 95:103:95:108:4:3fd0000000000000 at1:token";
    "b 3 0 10 2 o:7:95 c:7:95:103:95:108:4:3fd0000000000000";
    "e 9";
    "k 3";
  ]

let respell (needle, by) =
  List.map
    (fun body ->
      match replace_first body needle by with
      | respelled -> respelled
      | exception _ -> body)
    canonical_group

let test_journal_non_canonical () =
  Alcotest.(check int) "control group recovers" 0
    (dropped_after_resume (List.map digested_line canonical_group));
  List.iter
    (fun ((needle, by) as edit) ->
      let group = respell edit in
      if group = canonical_group then Alcotest.failf "%S does not occur" needle;
      Alcotest.(check int)
        (Printf.sprintf "%S -> %S dropped" needle by)
        (List.length group)
        (dropped_after_resume (List.map digested_line group)))
    [
      ("s 7 ", "s +7 ");
      ("s 7 ", "s 07 ");
      (" 100 ", " 1_00 ");
      (" 42 ", " 0x2a ");
      ("95:103:95:108:4:3fd0000000000000 at1", "95:103:95:108:+4:3fd0000000000000 at1");
      ("3fd0000000000000 at1", "3FD0000000000000 at1");
      ("3fd0000000000000 at1", "3fd0_00000000000 at1");
      (" at1:token", " ");
      ("o:7:95", "o:0x7:95");
      ("c:7:95", "c:07:95");
      ("b 3 0 10 2", "b 3 0 10 02");
      ("c:7:95:103", "c:7:95:1_03");
      ("e 9", "e 0b1001");
      ("k 3", "k +3");
    ];
  (* The digest field is canonical too. *)
  let digest_variants =
    [
      String.uppercase_ascii;
      (fun d -> "0" ^ d);
      (fun d -> String.sub d 0 4 ^ "_" ^ String.sub d 5 11);
    ]
  in
  List.iter
    (fun respell_digest ->
      let lines =
        List.mapi
          (fun i body ->
            let line = digested_line body in
            if i > 0 then line
            else
              let cut = String.rindex line ' ' in
              String.sub line 0 (cut + 1)
              ^ respell_digest (String.sub line (cut + 1) 16))
          canonical_group
      in
      Alcotest.(check int) "respelled digest drops the group" 4
        (dropped_after_resume lines))
    digest_variants

(* Near-valid tokens: random edits of valid ones.  Whatever decodes
   must re-encode to the very same string. *)
let gen_mutated tok =
  QCheck.Gen.(
    let edit =
      triple (int_range 0 2) nat
        (oneofl (List.of_seq (String.to_seq "0123456789abcdefABCDEF_+-xob.:,")))
    in
    map
      (List.fold_left
         (fun s (kind, pos, c) ->
           let n = String.length s in
           match kind with
           | 0 when n > 0 ->
               let i = pos mod n in
               String.sub s 0 i ^ String.make 1 c ^ String.sub s (i + 1) (n - i - 1)
           | 1 ->
               let i = pos mod (n + 1) in
               String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
           | _ when n > 0 ->
               let i = pos mod n in
               String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
           | _ -> s)
         tok)
      (list_size (int_range 1 3) edit))

let arb_mutated_sketch =
  QCheck.make ~print:Fun.id
    QCheck.Gen.(
      gen_sketch ~eps:gen_quantile_eps >>= fun s -> gen_mutated (Ref.quantile s))

let prop_quantile_canonical tok =
  match Quantile.of_string tok with
  | None -> true
  | Some q -> Quantile.to_string q = tok

let arb_mutated_controller =
  QCheck.make
    ~print:(fun (eps, tok) -> Printf.sprintf "eps=%h %s" eps tok)
    QCheck.Gen.(
      gen_sketch ~eps:gen_config_eps >>= fun sketch ->
      let c = { sketch; alarms = 0; adjustments = 3; threshold = 1.5 } in
      map (fun tok -> (sketch.Ref.eps, tok)) (gen_mutated (ref_controller c)))

let prop_adaptive_canonical (eps, tok) =
  match Adaptive_threshold.of_string (cfg_of eps) tok with
  | None -> true
  | Some t -> Adaptive_threshold.to_string t = tok

(* --- allocation ---------------------------------------------------------- *)

(* Bytes of token per minor word is the runtime check of the writer's
   allocation claim: the Printf encoder spent about 45 words per 8
   bytes of token. *)
let test_token_allocation () =
  let cfg = Adaptive_threshold.config ~budget:0.01 ~initial:0.0 () in
  let t = Adaptive_threshold.create cfg in
  let rng = Random.State.make [| 15 |] in
  for _ = 1 to 20_000 do
    ignore (Adaptive_threshold.step t (Random.State.float rng 1.0))
  done;
  let tok = Adaptive_threshold.to_string t in
  let tuples = List.length (String.split_on_char ',' tok) in
  if tuples < 100 then Alcotest.failf "only %d tuples" tuples;
  let w0 = Gc.minor_words () in
  let again = Adaptive_threshold.to_string t in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check string) "same token" tok again;
  let per_token_word = words /. (float_of_int (String.length tok) /. 8.0) in
  if per_token_word > 4.0 then
    Alcotest.failf "%d tuples, %d bytes: %.0f minor words, %.2f per 8 bytes (limit 4)"
      tuples (String.length tok) words per_token_word

let () =
  Alcotest.run "encoders"
    [
      ( "ascii",
        [
          Alcotest.test_case "writer corners" `Quick test_writer_corners;
          Alcotest.test_case "parsers reject non-canonical" `Quick test_parse_rejects;
          qcheck ~count:1000 "add_int = %d" arb_int prop_add_int;
          qcheck ~count:1000 "add_hex64 = %016Lx" QCheck.int64 prop_add_hex64;
          qcheck ~count:1000 "add_float_bits = %016Lx of bits"
            (QCheck.make ~print:string_of_float gen_float) prop_add_float_bits;
          qcheck ~count:1000 "parse_nat inverts %d on naturals" arb_int prop_parse_nat;
          qcheck ~count:1000 "parse_hex64 inverts %016Lx" QCheck.int64 prop_parse_hex64;
        ] );
      ( "tokens",
        [
          qcheck ~count:300 "quantile token = reference" arb_sketch prop_quantile_identity;
          qcheck ~count:300 "adaptive token = reference" arb_controller prop_adaptive_identity;
          qcheck ~count:200 "observed tokens = reference" scores_arb prop_observed_tokens;
          Alcotest.test_case "to_string allocation" `Quick test_token_allocation;
        ] );
      ( "journal bodies",
        [
          qcheck ~count:100 "appended bodies = reference" arb_records prop_append_bodies;
          qcheck ~count:100 "rewritten bodies = reference" arb_records prop_rewrite_bodies;
          qcheck ~count:500 "render_incident_event = reference"
            (QCheck.make gen_incident_event) prop_render_incident_event;
        ] );
      ( "canonical decoding",
        [
          Alcotest.test_case "quantile variants rejected" `Quick test_quantile_non_canonical;
          Alcotest.test_case "adaptive variants rejected" `Quick test_adaptive_non_canonical;
          Alcotest.test_case "journal variants dropped" `Quick test_journal_non_canonical;
          qcheck ~count:1000 "quantile: decodes => re-encodes" arb_mutated_sketch
            prop_quantile_canonical;
          qcheck ~count:1000 "adaptive: decodes => re-encodes" arb_mutated_controller
            prop_adaptive_canonical;
        ] );
    ]
