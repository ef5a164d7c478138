(** Segmented spilling recordings ({!Replay.Seglog}) end to end: spilled
    recordings charge no ticks and match monolithic ones, streamed
    replay reproduces the execution segment by segment, windowed replay
    halts at the covering segment with the same state digest the full
    replay (and the recorder's pinned checkpoint) has there, and every
    kind of on-disk damage — segment payloads, checkpoint pins, the
    manifest, a v1 directory — surfaces as the typed
    [Replay.Log.Corrupt], never a crash. *)

open Interp

let parse src = Minic.Typecheck.parse_and_check ~file:"seglog.mc" src

(* a DRF program with inputs, outputs, and mutex traffic: enough gated
   events (~400) to spill into many segments at a small threshold *)
let prog =
  parse
    {|int counter = 0; int m;
      void w(int *u) {
        int i; int v;
        for (i = 0; i < 40; i++) {
          lock(&m);
          v = input();
          counter = counter + (v & 7);
          unlock(&m);
        }
      }
      int main() { int t1; int t2; int i;
        t1 = spawn(w, &counter); t2 = spawn(w, &counter);
        for (i = 0; i < 20; i++) { lock(&m); output(counter); unlock(&m); }
        join(t1); join(t2);
        output(counter);
        return 0; }|}

let config seed = { Engine.default_config with seed; cores = 4 }
let io seed = Iomodel.random ~seed

let temp_seg_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "chimera-seglog-test-%d-%d" (Unix.getpid ()) !n)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let with_seg_dir f =
  let dir = temp_seg_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let record_seg ?(events_per_segment = 32) ?(checkpoint_every = 1) ~dir () =
  Chimera.Runner.record_segmented ~config:(config 1) ~io:(io 42) ~dir
    ~events_per_segment ~checkpoint_every prog

(* ------------------------------------------------------------------ *)

let test_spill_matches_monolithic () =
  with_seg_dir @@ fun dir ->
  let mono = Chimera.Runner.record ~config:(config 1) ~io:(io 42) prog in
  let seg = record_seg ~dir () in
  (match
     Chimera.Runner.same_execution mono.rc_outcome seg.sr_outcome
   with
  | Ok () -> ()
  | Error d ->
      Alcotest.failf "segmented recording diverged: %a"
        Chimera.Runner.pp_divergence d);
  (* spilling charges no simulated time *)
  Alcotest.(check int)
    "golden ticks unchanged" mono.rc_outcome.o_ticks seg.sr_outcome.o_ticks;
  let st = seg.sr_stats in
  Alcotest.(check bool) "actually spilled" true (st.ws_segments > 3);
  Alcotest.(check bool)
    "resident log bounded below the whole log" true
    (st.ws_peak_raw < st.ws_total_raw);
  Alcotest.(check int)
    "manifest agrees with writer" st.ws_segments
    (Array.length seg.sr_manifest.mf_segments)

let test_streamed_replay_matches_recording () =
  with_seg_dir @@ fun dir ->
  let seg = record_seg ~dir () in
  let full =
    (* different scheduler seed: the log alone must reproduce the run *)
    Chimera.Runner.replay_streamed ~config:(config 7920) ~io:(io 42) ~dir prog
  in
  (match Chimera.Runner.same_execution seg.sr_outcome full.st_outcome with
  | Ok () -> ()
  | Error d ->
      Alcotest.failf "streamed replay diverged: %a"
        Chimera.Runner.pp_divergence d);
  Alcotest.(check bool) "full replay is not halted" false full.st_halted;
  Alcotest.(check int) "every segment streamed"
    (Array.length seg.sr_manifest.mf_segments)
    full.st_segments_loaded;
  Alcotest.(check int) "one digest per segment drain"
    (Array.length seg.sr_manifest.mf_segments)
    (List.length full.st_digests)

let test_windowed_replay_halts_with_matching_digest () =
  with_seg_dir @@ fun dir ->
  let seg = record_seg ~dir () in
  let m = seg.sr_manifest in
  let nseg = Array.length m.mf_segments in
  Alcotest.(check bool) "enough segments to window" true (nseg >= 4);
  (* a window ending mid-recording: covered by roughly half the segments *)
  let mid = m.mf_segments.(nseg / 2).Replay.Seglog.sg_last_tick in
  let cover = Replay.Seglog.covering_segment m ~upto:mid in
  let full =
    Chimera.Runner.replay_streamed ~config:(config 7920) ~io:(io 42) ~dir prog
  in
  let win =
    Chimera.Runner.replay_streamed ~config:(config 7920) ~io:(io 42)
      ~upto_tick:mid ~dir prog
  in
  Alcotest.(check bool) "windowed replay halted" true win.st_halted;
  Alcotest.(check bool) "windowed replay skipped the tail" true
    (win.st_segments_loaded < nseg);
  Alcotest.(check int) "loaded exactly the covering prefix" (cover + 1)
    win.st_segments_loaded;
  (* the halt digest is the full replay's digest at the same drain: a
     windowed replay is a prefix of the full one, instant for instant *)
  let digest_at digests idx =
    match List.assoc_opt idx digests with
    | Some d -> d
    | None -> Alcotest.failf "no digest at segment %d drain" idx
  in
  Alcotest.(check string)
    "halt digest matches full replay at the covering drain"
    (digest_at full.st_digests cover)
    (digest_at win.st_digests cover)

let test_checkpoints_pin_rerecordings () =
  with_seg_dir @@ fun dir1 ->
  with_seg_dir @@ fun dir2 ->
  let a = record_seg ~dir:dir1 () in
  let b = record_seg ~dir:dir2 () in
  let ck (m : Replay.Seglog.manifest) =
    Array.to_list m.mf_segments
    |> List.map (fun (s : Replay.Seglog.segment) ->
           Option.value s.sg_checkpoint ~default:"-")
  in
  (* seal points are functions of the gated event counts, and the
     execution is deterministic given seed+inputs, so re-recordings pin
     identical checkpoint digests at identical seals *)
  Alcotest.(check (list string))
    "re-recording pins the same digests" (ck a.sr_manifest) (ck b.sr_manifest);
  (* and the segment payloads themselves are byte-identical *)
  let md5s (m : Replay.Seglog.manifest) =
    Array.to_list m.mf_segments
    |> List.map (fun (s : Replay.Seglog.segment) ->
           (s.Replay.Seglog.sg_md5_input, s.sg_md5_order))
  in
  Alcotest.(check bool)
    "segment checksums identical" true
    (md5s a.sr_manifest = md5s b.sr_manifest)

let is_digest d =
  String.length d = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) d

let test_checkpoints_are_digest_pins () =
  with_seg_dir @@ fun dir ->
  (* a stale v1 snapshot file: the fresh recording must sweep it *)
  Sys.mkdir dir 0o755;
  Out_channel.with_open_bin (Filename.concat dir "ckpt-0000.bin") (fun oc ->
      output_string oc "v1 snapshot");
  let seg = record_seg ~checkpoint_every:2 ~dir () in
  let pins =
    Array.to_list seg.sr_manifest.mf_segments
    |> List.map (fun (s : Replay.Seglog.segment) -> s.sg_checkpoint)
  in
  Alcotest.(check bool) "checkpoint_every=2 leaves gaps" true
    (List.mem None pins && List.exists Option.is_some pins);
  Alcotest.(check bool) "every pin is a 32-hex digest" true
    (List.for_all (Option.fold ~none:true ~some:is_digest) pins);
  Alcotest.(check (list string)) "no checkpoint files beside the segments" []
    (Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> String.starts_with ~prefix:"ckpt-" f))

(* ------------------------------------------------------------------ *)
(* Corruption: typed errors, never crashes *)

let is_corrupt f =
  match f () with
  | exception Replay.Log.Corrupt _ -> true
  | exception e ->
      Alcotest.failf "expected Log.Corrupt, got %s" (Printexc.to_string e)
  | _ -> false

let replay_dir dir =
  Chimera.Runner.replay_streamed ~config:(config 7920) ~io:(io 42) ~dir prog

let clobber path f =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  let s' = f s in
  let oc = open_out_bin path in
  output_string oc s';
  close_out oc

let test_corrupt_segment_payload () =
  with_seg_dir @@ fun dir ->
  let seg = record_seg ~dir () in
  let victim =
    Filename.concat dir
      (Replay.Seglog.segment_file
         (Array.length seg.sr_manifest.mf_segments / 2))
  in
  clobber victim (fun s ->
      let b = Bytes.of_string s in
      let i = Bytes.length b - 4 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
      Bytes.to_string b);
  Alcotest.(check bool) "flipped payload byte is typed" true
    (is_corrupt (fun () -> replay_dir dir))

let test_corrupt_segment_magic () =
  with_seg_dir @@ fun dir ->
  let _ = record_seg ~dir () in
  clobber
    (Filename.concat dir (Replay.Seglog.segment_file 0))
    (fun s -> "not-a-segment\n" ^ s);
  Alcotest.(check bool) "bad segment magic is typed" true
    (is_corrupt (fun () -> replay_dir dir))

let test_corrupt_manifest () =
  with_seg_dir @@ fun dir ->
  let _ = record_seg ~dir () in
  let manifest = Filename.concat dir Replay.Seglog.manifest_file in
  (* truncation: drop the end marker and the last entry *)
  clobber manifest (fun s ->
      match String.rindex_opt (String.trim s) '\n' with
      | Some i -> String.sub s 0 i
      | None -> "");
  Alcotest.(check bool) "truncated manifest is typed" true
    (is_corrupt (fun () -> replay_dir dir));
  (* and a missing manifest *)
  Sys.remove manifest;
  Alcotest.(check bool) "missing manifest is typed" true
    (is_corrupt (fun () -> replay_dir dir))

(* rewrite line [n] of the manifest (0 is the magic header) *)
let edit_manifest_line dir n f =
  clobber (Filename.concat dir Replay.Seglog.manifest_file) (fun s ->
      String.split_on_char '\n' s
      |> List.mapi (fun i l -> if i = n then f l else l)
      |> String.concat "\n")

let test_corrupt_checkpoint_pin () =
  List.iter
    (fun (what, edit) ->
      with_seg_dir @@ fun dir ->
      let _ = record_seg ~dir () in
      (* the pin is the first segment line's last field, [ckpt=<pin>] *)
      edit_manifest_line dir 1 (fun l ->
          let eq = String.rindex l '=' + 1 in
          String.sub l 0 eq ^ edit (String.sub l eq (String.length l - eq)));
      Alcotest.(check bool) what true
        (is_corrupt (fun () -> Replay.Seglog.read_manifest ~dir)))
    [
      ("truncated pin is typed", fun p -> String.sub p 0 31);
      ("non-hex pin is typed", fun p -> "zz" ^ String.sub p 2 30);
      ("overlong pin is typed", fun p -> p ^ "00");
    ]

(* an older manifest version is typed, not read as the current format:
   v1 stored snapshot files, v2 segments still carry per-step schedule
   segment lists *)
let old_manifest_is_typed version () =
  with_seg_dir @@ fun dir ->
  let _ = record_seg ~dir () in
  edit_manifest_line dir 0 (fun _ -> "chimera-log-segments/" ^ version);
  Alcotest.(check bool) ("v" ^ version ^ " manifest is typed") true
    (is_corrupt (fun () -> replay_dir dir))

let test_corrupt_v1_manifest = old_manifest_is_typed "1"
let test_corrupt_v2_manifest = old_manifest_is_typed "2"

let suite =
  [
    Alcotest.test_case "spill matches monolithic recording" `Quick
      test_spill_matches_monolithic;
    Alcotest.test_case "streamed replay matches recording" `Quick
      test_streamed_replay_matches_recording;
    Alcotest.test_case "windowed replay halts with matching digest" `Quick
      test_windowed_replay_halts_with_matching_digest;
    Alcotest.test_case "checkpoints pin re-recordings" `Quick
      test_checkpoints_pin_rerecordings;
    Alcotest.test_case "checkpoints are digest pins" `Quick
      test_checkpoints_are_digest_pins;
    Alcotest.test_case "corrupt: segment payload" `Quick
      test_corrupt_segment_payload;
    Alcotest.test_case "corrupt: segment magic" `Quick
      test_corrupt_segment_magic;
    Alcotest.test_case "corrupt: manifest" `Quick test_corrupt_manifest;
    Alcotest.test_case "corrupt: tampered checkpoint pin" `Quick
      test_corrupt_checkpoint_pin;
    Alcotest.test_case "corrupt: v1 manifest" `Quick test_corrupt_v1_manifest;
    Alcotest.test_case "corrupt: v2 manifest" `Quick test_corrupt_v2_manifest;
  ]
