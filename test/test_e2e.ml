(** End-to-end properties of the full Chimera pipeline — the paper's core
    claims, checked on all nine benchmarks:

    - {e replay determinism}: record the instrumented program, replay
      under a different scheduler seed, and require the identical
      execution (outputs, final memory, per-thread instruction counts);
    - {e transformed programs are data-race-free} when weak locks count
      as synchronization (Section 2's transformation guarantee);
    - {e RELAY soundness}: every dynamically observed race of the
      original program is covered by a static race pair;
    - the {e motivating negative}: for racy programs, sync-only logs are
      NOT sufficient — replaying the uninstrumented program can diverge. *)

let analyze_bench ?opts (b : Bench_progs.Registry.bench) ~workers ~scale =
  Chimera.Pipeline.analyze ?opts ~profile_runs:6
    ~profile_io:(fun i -> b.b_io ~seed:(100 + i) ~scale:b.b_profile_scale)
    (Minic.Parser.parse ~file:b.b_name (b.b_source ~workers ~scale))

let eval_config seed = { Interp.Engine.default_config with seed; cores = 4 }

(* cache analyses: several tests reuse them *)
let analysis_cache : (string, Chimera.Pipeline.analysis) Hashtbl.t =
  Hashtbl.create 16

let analysis_of (b : Bench_progs.Registry.bench) =
  match Hashtbl.find_opt analysis_cache b.b_name with
  | Some an -> an
  | None ->
      let an = analyze_bench b ~workers:4 ~scale:b.b_profile_scale in
      Hashtbl.replace analysis_cache b.b_name an;
      an

let test_record_replay_determinism () =
  List.iter
    (fun (b : Bench_progs.Registry.bench) ->
      let an = analysis_of b in
      let io = b.b_io ~seed:42 ~scale:b.b_profile_scale in
      List.iter
        (fun seed ->
          match
            Chimera.Runner.record_replay_check ~config:(eval_config seed) ~io
              an.an_instrumented
          with
          | Ok _ -> ()
          | Error d ->
              Alcotest.failf "%s (seed %d) diverged: %a" b.b_name seed
                Chimera.Runner.pp_divergence d)
        [ 1; 2 ])
    Bench_progs.Registry.all

let test_transformed_is_drf () =
  List.iter
    (fun (b : Bench_progs.Registry.bench) ->
      let an = analysis_of b in
      let dr = Dynrace.create ~track_weak:true () in
      let hooks = Dynrace.attach dr (Interp.Engine.no_hooks ()) in
      let io = b.b_io ~seed:42 ~scale:b.b_profile_scale in
      let o =
        Interp.Engine.run ~config:(eval_config 3) ~hooks
          ~mode:Interp.Engine.Native ~io an.an_instrumented
      in
      Alcotest.(check bool) (b.b_name ^ ": run completed") false o.o_timed_out;
      match Dynrace.races dr with
      | [] -> ()
      | r :: _ ->
          Alcotest.failf "%s: transformed program races: %a" b.b_name
            Dynrace.pp_race r)
    Bench_progs.Registry.all

let test_relay_soundness_oracle () =
  (* every dynamic race of the ORIGINAL program appears among the static
     race pairs (RELAY is sound); checked over several schedules *)
  List.iter
    (fun (b : Bench_progs.Registry.bench) ->
      let an = analysis_of b in
      let static = an.an_report.racy_sids in
      List.iter
        (fun seed ->
          let dr = Dynrace.create ~track_weak:false () in
          let hooks = Dynrace.attach dr (Interp.Engine.no_hooks ()) in
          let io = b.b_io ~seed:42 ~scale:b.b_profile_scale in
          let _ =
            Interp.Engine.run ~config:(eval_config seed) ~hooks
              ~mode:Interp.Engine.Native ~io an.an_prog
          in
          List.iter
            (fun (r : Dynrace.race) ->
              let covered =
                Hashtbl.mem static r.dr_sid1 && Hashtbl.mem static r.dr_sid2
              in
              if not covered then
                Alcotest.failf
                  "%s: dynamic race (sid %d, sid %d on %a) missed by RELAY"
                  b.b_name r.dr_sid1 r.dr_sid2 Runtime.Key.pp_addr r.dr_addr)
            (Dynrace.races dr))
        [ 1; 5 ])
    Bench_progs.Registry.all

let test_naive_configuration_also_deterministic () =
  (* Figure 5's baseline configuration (every race at instruction
     granularity) must also replay correctly — it is slow, not wrong *)
  let b = Bench_progs.Registry.by_name "radix" in
  let an = analyze_bench ~opts:Instrument.Plan.naive b ~workers:2 ~scale:2 in
  let io = b.b_io ~seed:42 ~scale:2 in
  match
    Chimera.Runner.record_replay_check ~config:(eval_config 1) ~io
      an.an_instrumented
  with
  | Ok _ -> ()
  | Error d ->
      Alcotest.failf "naive radix diverged: %a" Chimera.Runner.pp_divergence d

let test_racy_program_can_diverge_without_chimera () =
  (* the motivating experiment: replaying the ORIGINAL racy program from
     sync-only logs diverges for some recording seed *)
  let src =
    {|int counter = 0;
      void w(int *u) {
        int i; int tmp;
        for (i = 0; i < 40; i++) { tmp = counter; counter = tmp + 1; }
      }
      int main() { int t1; int t2;
        t1 = spawn(w, &counter); t2 = spawn(w, &counter);
        join(t1); join(t2);
        output(counter);
        return 0; }|}
  in
  let p = Minic.Typecheck.parse_and_check src in
  let io = Interp.Iomodel.random ~seed:9 in
  let diverged = ref false in
  let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  List.iter
    (fun seed ->
      if not !diverged then
        let r = Chimera.Runner.record ~config:(eval_config seed) ~io p in
        let o =
          Chimera.Runner.replay
            ~config:(eval_config (seed + 7919))
            ~io p r.rc_log
        in
        match Chimera.Runner.same_execution r.rc_outcome o with
        | Error _ -> diverged := true
        | Ok () -> ())
    seeds;
  Alcotest.(check bool)
    "sync-only replay of a racy program diverges for some schedule" true
    !diverged

let test_range_claims_sound () =
  (* loop-lock range soundness: while a thread holds a range-claimed weak
     lock, every access it makes to a block covered by one of its claims
     stays inside the claimed ranges *)
  let b = Bench_progs.Registry.by_name "radix" in
  let an = analysis_of b in
  let io = b.b_io ~seed:42 ~scale:b.b_profile_scale in
  let config = eval_config 4 in
  let hooks = Interp.Engine.no_hooks () in
  let eng =
    Interp.Engine.make_engine ~config ~hooks ~mode:Interp.Engine.Native ~io
      an.an_instrumented
  in
  let violations = ref [] in
  hooks.on_mem <-
    Some
      (fun tid addr ~write:_ ~sid ->
        (* the claims this thread currently holds, one per lock of its
           innermost region *)
        List.iter
          (fun (claim : Replay.Log.sclaim) ->
            List.iter
              (fun (r : Replay.Log.srange) ->
                if r.sr_origin = addr.Runtime.Key.a_origin then
                  (* access to a claimed block must be within SOME
                     claimed range of that block *)
                  let covered =
                    List.exists
                      (fun (r' : Replay.Log.srange) ->
                        r'.sr_origin = addr.a_origin
                        && r'.sr_lo <= addr.a_off
                        && addr.a_off <= r'.sr_hi)
                      claim
                  in
                  if not covered then
                    violations := (sid, addr) :: !violations)
              claim)
          (Interp.Engine.region_claims eng ~tid))
  (* NB: only accesses to blocks that appear in the claim are checked —
     accesses to unclaimed objects are governed by other locks *);
  let o = Interp.Engine.run_engine eng in
  Alcotest.(check bool) "radix completed" false o.o_timed_out;
  match !violations with
  | [] -> ()
  | (sid, addr) :: _ ->
      Alcotest.failf "access outside claimed range: sid %d at %a" sid
        Runtime.Key.pp_addr addr

let test_log_sizes_nonzero () =
  let b = Bench_progs.Registry.by_name "pfscan" in
  let an = analysis_of b in
  let io = b.b_io ~seed:42 ~scale:b.b_profile_scale in
  let r = Chimera.Runner.record ~config:(eval_config 1) ~io an.an_instrumented in
  let sz = Chimera.Runner.log_sizes r.rc_log in
  Alcotest.(check bool) "input log nonempty" true (sz.ls_input_raw > 0);
  Alcotest.(check bool) "order log nonempty" true (sz.ls_order_raw > 0);
  Alcotest.(check bool) "compression shrinks order log" true
    (sz.ls_order_z < sz.ls_order_raw);
  (* decode the encoded logs and replay from the decoded copy *)
  let log' =
    Replay.Log.decode
      (Replay.Log.encode_input_log r.rc_log)
      (Replay.Log.encode_order_log r.rc_log)
  in
  let o = Chimera.Runner.replay ~config:(eval_config 77) ~io an.an_instrumented log' in
  match Chimera.Runner.same_execution r.rc_outcome o with
  | Ok () -> ()
  | Error d ->
      Alcotest.failf "replay from decoded log diverged: %a"
        Chimera.Runner.pp_divergence d

let test_thread_scaling () =
  (* the instrumented pipeline works at 2 and 8 workers too (Figure 8) *)
  let b = Bench_progs.Registry.by_name "fft" in
  List.iter
    (fun workers ->
      let an = analyze_bench b ~workers ~scale:2 in
      let io = b.b_io ~seed:42 ~scale:2 in
      let config = { (eval_config 1) with cores = workers } in
      match Chimera.Runner.record_replay_check ~config ~io an.an_instrumented with
      | Ok _ -> ()
      | Error d ->
          Alcotest.failf "fft x%d diverged: %a" workers
            Chimera.Runner.pp_divergence d)
    [ 2; 8 ]

(* log_sizes is exactly the persisted form's sizes: the encoded logs'
   lengths and their compressed lengths *)
let test_log_sizes_pinned () =
  let b = Bench_progs.Registry.by_name "pfscan" in
  let an = analysis_of b in
  let io = b.b_io ~seed:42 ~scale:b.b_profile_scale in
  let r = Chimera.Runner.record ~config:(eval_config 2) ~io an.an_instrumented in
  let input = Replay.Log.encode_input_log r.rc_log in
  let order = Replay.Log.encode_order_log r.rc_log in
  let sz = Chimera.Runner.log_sizes r.rc_log in
  Alcotest.(check (list int))
    "raw input, raw order, z input, z order"
    [
      String.length input;
      String.length order;
      Zcompress.compressed_size input;
      Zcompress.compressed_size order;
    ]
    [ sz.ls_input_raw; sz.ls_order_raw; sz.ls_input_z; sz.ls_order_z ]

let suite =
  [
    Alcotest.test_case "record/replay determinism (all benchmarks)" `Slow
      test_record_replay_determinism;
    Alcotest.test_case "transformed programs are DRF" `Slow
      test_transformed_is_drf;
    Alcotest.test_case "RELAY soundness vs dynamic oracle" `Slow
      test_relay_soundness_oracle;
    Alcotest.test_case "naive config also deterministic" `Quick
      test_naive_configuration_also_deterministic;
    Alcotest.test_case "racy replay diverges without Chimera" `Quick
      test_racy_program_can_diverge_without_chimera;
    Alcotest.test_case "loop-lock range claims sound" `Quick
      test_range_claims_sound;
    Alcotest.test_case "log sizes + decoded replay" `Quick test_log_sizes_nonzero;
    Alcotest.test_case "log_sizes = encoded + compressed lengths" `Quick
      test_log_sizes_pinned;
    Alcotest.test_case "thread scaling 2/8" `Slow test_thread_scaling;
  ]
