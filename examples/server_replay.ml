(** Production-style recording: the apache benchmark under load.

    Run with: dune exec examples/server_replay.exe

    The paper's headline claim for servers is that recording costs almost
    nothing (2.4% average for apache + desktop apps) because logging
    overlaps with I/O wait, while the hot memset loop — which a naive
    scheme would serialize — runs in parallel thanks to loop-locks with
    symbolic address ranges. This example records a busy 4-worker server,
    reports the overhead and log sizes, and replays the run. *)

let () =
  let b = Bench_progs.Registry.by_name "apache" in
  let workers = 4 in
  let src = b.b_source ~workers ~scale:b.b_eval_scale in
  Fmt.pr "apache workload: %d workers, %d lines of MiniC@." workers
    (Bench_progs.Registry.loc b ~workers);

  let an =
    Chimera.Pipeline.analyze ~profile_runs:8
      ~profile_io:(fun i -> b.b_io ~seed:(100 + i) ~scale:b.b_profile_scale)
      (Minic.Parser.parse ~file:"apache" src)
  in
  Fmt.pr "static analysis : %d race pairs reported by RELAY@."
    (List.length an.an_report.races);
  Fmt.pr "plan            : %a@." Instrument.Plan.pp_summary an.an_plan;

  (* the memset story: show the loop-lock decisions with their ranges *)
  let ranged_loops =
    List.filter
      (fun (pd : Instrument.Plan.pair_decision) ->
        pd.pd_s1.sd_ranges <> [] || pd.pd_s2.sd_ranges <> [])
      an.an_plan.pl_decisions
  in
  Fmt.pr "loop-locks with symbolic ranges: %d race pairs (the hot memset \
          pattern)@."
    (List.length ranged_loops);

  let io = b.b_io ~seed:42 ~scale:b.b_eval_scale in
  let config = { Interp.Engine.default_config with seed = 2; cores = workers } in
  let ov, r =
    Chimera.Runner.measure ~config ~io ~original:an.an_prog
      ~instrumented:an.an_instrumented ()
  in
  Fmt.pr "@.native run      : %7d simulated ticks@." ov.ov_native_ticks;
  Fmt.pr "recorded run    : %7d simulated ticks  -> %.2fx overhead@."
    ov.ov_record_ticks ov.ov_record;
  Fmt.pr "replayed run    : %7d simulated ticks  -> %.2fx (network waits \
          are skipped at replay)@."
    ov.ov_replay_ticks ov.ov_replay;
  let s = r.rc_outcome.o_stats in
  Fmt.pr "weak-lock ops   : func %d | loop %d | bb %d | instr %d (of %d \
          memory ops = %.3f%%)@."
    s.n_weak_acq.(0) s.n_weak_acq.(1) s.n_weak_acq.(2) s.n_weak_acq.(3)
    s.n_mem_ops
    (100.
    *. float_of_int (Array.fold_left ( + ) 0 s.n_weak_acq)
    /. float_of_int (max 1 s.n_mem_ops));
  let sz = Chimera.Runner.log_sizes r.rc_log in
  Fmt.pr "log sizes (gz)  : input %dB, order %dB@." sz.ls_input_z
    sz.ls_order_z;

  let o =
    Chimera.Runner.replay
      ~config:{ config with seed = 424242 }
      ~io an.an_instrumented r.rc_log
  in
  match Chimera.Runner.same_execution r.rc_outcome o with
  | Ok () ->
      Fmt.pr "@.replay under a different scheduler: DETERMINISTIC — all %d \
              responses identical.@."
        (List.length r.rc_outcome.o_outputs)
  | Error d -> Fmt.pr "@.replay DIVERGED: %a@." Chimera.Runner.pp_divergence d
