(** Quickstart: the whole Chimera pipeline on a small racy program.

    Run with: dune exec examples/quickstart.exe

    The program has a classic lost-update race on [counter]. We:
    1. run RELAY to find the potential races,
    2. profile and plan weak-lock granularities,
    3. instrument the program,
    4. record an execution and replay it under a different scheduler,
    5. check the replay reproduced the recording exactly. *)

let source =
  {|
int counter = 0;
int done_flags[2];
int ids[2];

void worker(int *idp) {
  int i; int tmp; int id;
  id = *idp;
  for (i = 0; i < 25; i++) {
    tmp = counter;        // racy read
    counter = tmp + 1;    // racy write (lost updates!)
  }
  done_flags[id] = 1;
}

int main() {
  int t[2]; int i;
  for (i = 0; i < 2; i++) {
    ids[i] = i;
    t[i] = spawn(worker, &ids[i]);
  }
  for (i = 0; i < 2; i++) { join(t[i]); }
  output(counter);
  output(done_flags[0] + done_flags[1]);
  return 0;
}
|}

let () =
  Fmt.pr "=== 1. Static race detection (RELAY) ===@.";
  let program = Minic.Parser.parse ~file:"quickstart.mc" source in
  let an = Chimera.Pipeline.analyze ~profile_runs:6 program in
  Fmt.pr "%a@.@." Relay.Detect.pp_report an.an_report;

  Fmt.pr "=== 2. Granularity plan ===@.";
  Fmt.pr "%a@." Instrument.Plan.pp_summary an.an_plan;
  List.iter
    (fun (pd : Instrument.Plan.pair_decision) ->
      Fmt.pr "  %a / %a <- lock %a@." Instrument.Plan.pp_region
        pd.pd_s1.sd_region Instrument.Plan.pp_region pd.pd_s2.sd_region
        Minic.Ast.pp_weak_lock pd.pd_lock)
    an.an_plan.pl_decisions;
  Fmt.pr "@.=== 3. Instrumented program ===@.";
  print_string (Minic.Pretty.program_to_string an.an_instrumented);

  Fmt.pr "@.=== 4. Record, then replay under a different scheduler ===@.";
  let io = Interp.Iomodel.random ~seed:7 in
  let record_config = { Interp.Engine.default_config with seed = 11; cores = 4 } in
  let r = Chimera.Runner.record ~config:record_config ~io an.an_instrumented in
  Fmt.pr "recorded run : outputs = [%a], %d simulated ticks@."
    Fmt.(list ~sep:comma int)
    (List.map snd r.rc_outcome.o_outputs)
    r.rc_outcome.o_ticks;
  let sz = Chimera.Runner.log_sizes r.rc_log in
  Fmt.pr "log sizes    : input %dB, order %dB (compressed)@." sz.ls_input_z
    sz.ls_order_z;

  let replay_config = { record_config with seed = 99999 } in
  let o = Chimera.Runner.replay ~config:replay_config ~io an.an_instrumented r.rc_log in
  Fmt.pr "replayed run : outputs = [%a]@."
    Fmt.(list ~sep:comma int)
    (List.map snd o.o_outputs);

  Fmt.pr "@.=== 5. Determinism check ===@.";
  match Chimera.Runner.same_execution r.rc_outcome o with
  | Ok () ->
      Fmt.pr
        "DETERMINISTIC: same outputs, same final memory, same per-thread \
         instruction counts.@."
  | Error d -> Fmt.pr "DIVERGED: %a@." Chimera.Runner.pp_divergence d
