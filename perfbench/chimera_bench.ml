(** The repository benchmark (see README.md for the workloads, the
    metrics and which layer should move which metric).

    [chimera_bench --workload W --seed N --seconds S --trace 0|1]

    A run repeats a cycle until [--seconds] have passed: set up the
    workload (timed as [setup_s]), run a fixed round of operations, drawn
    once from [--seed], then a short probe of the stages the round does
    not exercise. Every metric is built from per-operation medians over
    the run (see Samples below), so it does not depend on how many cycles
    fit into the run. Every output is checked; the last line of standard
    output is one JSON object.

    With [--trace 0] the run reports the end-to-end metrics. With
    [--trace 1] rounds alternate between untraced and traced; a traced
    round splits each operation into the public functions of the layers
    it calls and reports per-layer totals, plus an explicit [other] per
    operation (its wall time minus its children), plus the tracing
    overhead (traced minus untraced round wall time). *)

module R = Bench_progs.Registry
module E = Interp.Engine
module P = Chimera.Pipeline
module Run = Chimera.Runner

(* The paper's Table 1 simulation settings, as in bench/harness.ml and the
   golden counters. Analyses run serially (no Par.Pool): on a shared
   2-core host a second domain made analysis times far less repeatable,
   and an idle worker domain, which still joins every minor collection,
   slowed single-threaded recording by 15-30%. *)
let workers = 4
let cores = 4
let profile_runs = 12
let min_cycles = 3  (* set-up, round and probe: at least 3 of each *)
let setup_hits = 30  (* warm hits per set-up analysis *)
let window_reps = 100  (* windowed replays per probe segmented recording *)
let golden_file = "test/golden/golden_counters.expected"
let workdir = ".perfbench_work"

(* ------------------------------------------------------------------ *)
(* Clock: bechamel's monotonic clock, the one bench/wall.ml times with. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let timed f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

(* ------------------------------------------------------------------ *)
(* Samples. Operations add into the open unit (one set-up, one round or
   one probe); closing the unit files each key's sum per operation as
   one sample of its phase. A unit runs the same operations in the same
   order every time, so an operation's position in its unit names it
   across units. A metric is the sum, over the unit's operations, of each
   operation's median over units: a slow stretch of a shared host then
   costs a few samples of many operations rather than whole units, and
   the sum still reads as the cost of one unit. *)

type phase = Setup | Loop | Probe

let op_index = ref 0  (* position of the open operation in its unit *)
let unit_sums : (string * int, float) Hashtbl.t = Hashtbl.create 64
let unit_ratios : float list ref = ref []
let samples : (phase * string * int, float list) Hashtbl.t = Hashtbl.create 64

let add k v =
  let key = (k, !op_index) in
  Hashtbl.replace unit_sums key
    (v +. Option.value ~default:0. (Hashtbl.find_opt unit_sums key))

let addi k n = add k (float_of_int n)

let push phase (k, i) v =
  Hashtbl.replace samples (phase, k, i)
    (v :: Option.value ~default:[] (Hashtbl.find_opt samples (phase, k, i)))

let geomean = function
  | [] -> None
  | xs ->
      let n = float_of_int (List.length xs) in
      Some (exp (List.fold_left (fun a x -> a +. log x) 0. xs /. n))

let discard_unit () =
  Hashtbl.reset unit_sums;
  unit_ratios := [];
  op_index := 0

let close_unit phase =
  Hashtbl.iter (push phase) unit_sums;
  Option.iter (push phase ("record_overhead_x", 0)) (geomean !unit_ratios);
  discard_unit ()

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** A metric comes from the round where the round produces it, else from
    the probe, else from set-up. *)
let value k =
  List.find_map
    (fun ph ->
      match
        Hashtbl.fold
          (fun (ph', k', _) xs acc ->
            if ph' = ph && k' = k then median xs :: acc else acc)
          samples []
      with
      | [] -> None
      | ms -> Some (List.fold_left ( +. ) 0. ms))
    [ Loop; Probe; Setup ]

(* ------------------------------------------------------------------ *)
(* Checks: every failure is printed and counted, never skipped. *)

let attempted = ref 0
let failed = ref 0
let op_failed = ref false

let check cond fmt =
  Fmt.kstr
    (fun msg ->
      if not cond then begin
        op_failed := true;
        Fmt.epr "FAIL: %s@." msg
      end)
    fmt

let attempt name f =
  incr attempted;
  incr op_index;
  op_failed := false;
  (match f () with
  | () -> ()
  | exception e ->
      op_failed := true;
      Fmt.epr "FAIL: %s: %s@." name (Printexc.to_string e));
  if !op_failed then incr failed

(* ------------------------------------------------------------------ *)
(* Files: everything the run writes lives under its own work directory. *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

(* ------------------------------------------------------------------ *)
(* Golden counters: the repository's pinned plan and tick columns. *)

type golden = {
  g_static : int;
  g_pruned : int;
  g_kept : int;
  g_plan : int;
  g_elided : int;
  g_ticks : int;
}

let load_golden () : (string, golden) Hashtbl.t =
  let ic = open_in golden_file in
  let tbl = Hashtbl.create 16 in
  let rec loop first =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        (match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ name; st; pr; ke; pl; el; _refined; _dropped; ti ] when not first ->
            let i = int_of_string in
            Hashtbl.replace tbl name
              {
                g_static = i st;
                g_pruned = i pr;
                g_kept = i ke;
                g_plan = i pl;
                g_elided = i el;
                g_ticks = i ti;
              }
        | _ -> ());
        loop false
  in
  loop true;
  close_in ic;
  tbl

(* ------------------------------------------------------------------ *)
(* Programs and operations *)

type prog = {
  b : R.bench;
  scale : int;
  golden : golden option;  (** only at evaluation scale *)
  mutable parsed : Minic.Ast.program;
  mutable typed : Minic.Ast.program;
  mutable an : P.analysis option;
}

let make_prog golden (b : R.bench) ~scale =
  let golden =
    if scale = b.b_eval_scale then Hashtbl.find_opt golden b.b_name else None
  in
  let empty = { Minic.Ast.p_structs = []; p_globals = []; p_funs = [] } in
  { b; scale; golden; parsed = empty; typed = empty; an = None }

let analysis p =
  match p.an with Some an -> an | None -> failwith (p.b.b_name ^ ": no analysis")

let instr_digest (an : P.analysis) =
  Digest.to_hex (Digest.string (Marshal.to_string an.an_instrumented []))

let profile_io p i = p.b.b_io ~seed:(100 + i) ~scale:p.b.b_profile_scale

(** Parse and type-check the program's source (set-up). *)
let parse p =
  let src = p.b.b_source ~workers ~scale:p.scale in
  let parsed, t_parse = timed (fun () -> Minic.Parser.parse ~file:p.b.b_name src) in
  let typed, t_check = timed (fun () -> Minic.Typecheck.check parsed) in
  add "minic.parse_s" t_parse;
  add "minic.typecheck_s" t_check;
  p.parsed <- parsed;
  p.typed <- typed

let stage_key = function
  | "profile" -> "profiling.s"
  | stage -> stage ^ ".s"

(** One cold analysis (the cache misses, computes and stores the entry). *)
let analyze_cold ~trace ~cache p =
  let stages = ref 0. in
  let stage_sink =
    if trace then
      Some
        (fun stage dt ->
          stages := !stages +. dt;
          add (stage_key stage) dt)
    else None
  in
  let an, t =
    timed (fun () ->
        P.analyze ~profile_runs ~profile_io:(profile_io p) ~cache
          ~cache_tag:p.b.b_name ?stage_sink p.parsed)
  in
  add "analyze_s" t;
  if trace then add "analyze.other_s" (t -. !stages);
  let rep = an.an_report and lo = an.an_lockopt in
  addi "relay.static_pairs" rep.n_candidates;
  addi "mhp.pruned_pairs" (List.length rep.pruned);
  addi "plan.locks" lo.lo_plan_acqs;
  addi "lockopt.elided" lo.lo_elided_acqs;
  addi "profiling.runs" profile_runs;
  addi "profiling.concurrent_pairs"
    (Profiling.Profile.n_concurrent_pairs an.an_profile);
  (match p.golden with
  | None -> ()
  | Some g ->
      let got =
        ( rep.n_candidates,
          List.length rep.pruned,
          List.length rep.races,
          lo.lo_plan_acqs,
          lo.lo_elided_acqs )
      in
      check
        (got = (g.g_static, g.g_pruned, g.g_kept, g.g_plan, g.g_elided))
        "%s: plan counters differ from %s" p.b.b_name golden_file);
  (match p.an with
  | Some prev ->
      check
        (instr_digest prev = instr_digest an)
        "%s: cold analyses disagree" p.b.b_name
  | None -> ());
  p.an <- Some an

(** One warm re-analysis: must hit the entry [analyze_cold] stored. *)
let analyze_warm ~trace ~cache p =
  let hit = ref false in
  let cache_log msg =
    if String.starts_with ~prefix:"analysis cache hit" msg then hit := true
  in
  let an, t =
    timed (fun () ->
        P.analyze ~profile_runs ~profile_io:(profile_io p) ~cache
          ~cache_tag:p.b.b_name ~cache_log p.parsed)
  in
  add "reanalyze_s" t;
  if trace then begin
    add "ancache.hit_s" t;
    let key =
      P.cache_key ~opts:Instrument.Plan.all_opts ~profile_runs
        ~profile_config:E.default_config ~mhp:true ~lockopt:true
        ~cache_tag:p.b.b_name p.typed
    in
    let found, t_find = timed (fun () -> Ancache.find cache ~key) in
    check (Result.is_ok found) "%s: cache entry not found by key" p.b.b_name;
    add "ancache.find_s" t_find;
    add "ancache.other_s" (t -. t_find)
  end;
  check !hit "%s: warm analysis missed the cache" p.b.b_name;
  check
    (instr_digest an = instr_digest (analysis p))
    "%s: warm analysis differs from the cold one" p.b.b_name

let reanalyze ~hits ~trace ~cache p =
  for _ = 1 to hits do
    attempt "warm analysis" (fun () -> analyze_warm ~trace ~cache p)
  done

let entry_bytes cache = addi "ancache.entry_bytes" (Ancache.stats cache).st_bytes

(** Apply the plan again from outside (set-up) and pin the result. *)
let instrument p =
  let an = analysis p in
  let instr, t =
    timed (fun () -> Instrument.Transform.apply an.an_prog an.an_plan)
  in
  add "instrument.apply_s" t;
  check
    (Marshal.to_string instr [] = Marshal.to_string an.an_instrumented [])
    "%s: instrumentation is not deterministic" p.b.b_name

(** One recorded execution: scheduler seed, IO seed, strategy. *)
type spec = { sched : int; io_seed : int; strategy : E.strategy }

let canonical = { sched = 1; io_seed = 42; strategy = E.Sdefault }

let config_of s = { E.default_config with seed = s.sched; cores; strategy = s.strategy }

(** The replay runs under a shifted scheduler seed, as bench/wall.ml's. *)
let replay_config s = { (config_of s) with seed = s.sched + 7919 }

let io_of p s = p.b.b_io ~seed:s.io_seed ~scale:p.scale

let spec_name p s =
  Fmt.str "%s/seed=%d/io=%d/%s" p.b.b_name s.sched s.io_seed
    (E.strategy_name s.strategy)

(* Per-op facts that repeat exactly: native ticks (set-up), record ticks,
   compressed log bytes. *)
let natives : (string, int) Hashtbl.t = Hashtbl.create 64
let first_ticks : (string, int) Hashtbl.t = Hashtbl.create 64
let log_z : (string, int) Hashtbl.t = Hashtbl.create 64

let native p s =
  let o = Run.native ~config:(config_of s) ~io:(io_of p s) p.typed in
  check (not o.o_timed_out) "%s: native run timed out" (spec_name p s);
  Hashtbl.replace natives (spec_name p s) o.o_ticks

let check_outcome name (o : E.outcome) =
  check (not o.o_timed_out) "%s: run timed out" name;
  check (o.o_faults = []) "%s: run faulted" name

let check_replay name (recd : E.outcome) (rep : E.outcome) =
  check_outcome (name ^ " replay") rep;
  (match Run.same_execution recd rep with
  | Ok () -> ()
  | Error d -> check false "%s: replay diverged: %a" name Run.pp_divergence d);
  check (rep.o_claim_mismatches = []) "%s: replay claim mismatches" name

(** Counters of one recorded execution, and its overhead ratio. *)
let record_facts p s (o : E.outcome) =
  let name = spec_name p s in
  (match Hashtbl.find_opt first_ticks name with
  | None -> Hashtbl.replace first_ticks name o.o_ticks
  | Some t -> check (t = o.o_ticks) "%s: ticks changed between rounds" name);
  (match (p.golden, s = canonical) with
  | Some g, true ->
      check (o.o_ticks = g.g_ticks) "%s: %d ticks, %s pins %d" name o.o_ticks
        golden_file g.g_ticks
  | _ -> ());
  (match Hashtbl.find_opt natives name with
  | Some n -> unit_ratios := (float_of_int o.o_ticks /. float_of_int n) :: !unit_ratios
  | None -> check false "%s: no native baseline" name);
  let st = o.o_stats in
  addi "engine.stmts" st.n_stmts;
  addi "engine.ticks" o.o_ticks;
  addi "weaklock.acq" (Array.fold_left ( + ) 0 st.n_weak_acq);
  addi "weaklock.forced" st.n_forced;
  addi "weaklock.block_ticks" (Array.fold_left ( + ) 0 st.weak_block_ticks)

(** Bare engine record run (a traced op's engine child). *)
let engine_record p s =
  let o, t =
    timed (fun () ->
        E.run ~config:(config_of s) ~mode:E.Record ~io:(io_of p s)
          (analysis p).an_instrumented)
  in
  add "engine.record_s" t;
  add ("engine.record_s." ^ E.strategy_name s.strategy) t;
  (o, t)

let engine_replay p s log =
  let o, t =
    timed (fun () ->
        E.run ~config:(replay_config s) ~mode:(E.Replay log) ~io:(io_of p s)
          (analysis p).an_instrumented)
  in
  add "engine.replay_s" t;
  (o, t)

(** record-replay op: [Runner.record], then replay from the encoded log
    ([Log.decode] + [Runner.replay]) under a shifted seed. *)
let rr_op ~trace p s () =
  let name = spec_name p s in
  let instr = (analysis p).an_instrumented and io = io_of p s in
  let r, t_rec = timed (fun () -> Run.record ~config:(config_of s) ~io instr) in
  add "record_s" t_rec;
  let o = r.rc_outcome in
  check_outcome name o;
  record_facts p s o;
  (* outside the timed section: the persisted form of the log *)
  let (inp, ord), t_enc =
    timed (fun () ->
        ( Replay.Log.encode_input_log r.rc_log,
          Replay.Log.encode_order_log r.rc_log ))
  in
  addi "log.raw_bytes" (String.length inp + String.length ord);
  let compress () = Zcompress.compressed_size inp + Zcompress.compressed_size ord in
  if trace then begin
    let z, t_z = timed compress in
    add "zcompress.s" t_z;
    add "log.encode_s" t_enc;
    let eo, t_eng = engine_record p s in
    check (eo.o_ticks = o.o_ticks) "%s: bare engine run differs" name;
    add "runner.record_other_s" (t_rec -. t_eng -. t_enc -. t_z);
    match Hashtbl.find_opt log_z name with
    | Some prev -> check (z = prev) "%s: log size changed" name
    | None -> Hashtbl.replace log_z name z
  end;
  (* an untraced op compresses its log once; its size repeats *)
  if not (Hashtbl.mem log_z name) then Hashtbl.replace log_z name (compress ());
  addi "log_z_bytes" (Hashtbl.find log_z name);
  let log, t_dec = timed (fun () -> Replay.Log.decode inp ord) in
  let rp, t_rep =
    timed (fun () -> Run.replay ~config:(replay_config s) ~io instr log)
  in
  add "replay_s" (t_dec +. t_rep);
  check_replay name o rp;
  if trace then begin
    add "log.decode_s" t_dec;
    let _, t_eng = engine_replay p s log in
    add "runner.replay_other_s" (t_rep -. t_eng)
  end

(** sustained op: [Runner.record_segmented] into [dir], a full
    [replay_streamed] and [windows] windowed ones up to the middle
    segment. *)
let seg_op ~trace ~dir ~events_per_segment ~windows p s () =
  let name = spec_name p s in
  let instr = (analysis p).an_instrumented and io = io_of p s in
  let config = config_of s and rconfig = replay_config s in
  let sr, t_rec =
    timed (fun () ->
        Run.record_segmented ~config ~io ~dir ~events_per_segment instr)
  in
  add "record_s" t_rec;
  let o = sr.sr_outcome in
  check_outcome name o;
  record_facts p s o;
  let disk = dir_bytes dir in
  addi "log_z_bytes" disk;
  addi "seglog.disk_bytes" disk;
  addi "seglog.segments" sr.sr_stats.ws_segments;
  addi "seglog.peak_raw_bytes" sr.sr_stats.ws_peak_raw;
  let full, t_rep =
    timed (fun () -> Run.replay_streamed ~config:rconfig ~io ~dir instr)
  in
  add "replay_s" t_rep;
  check_replay name o full.st_outcome;
  let mf = sr.sr_manifest in
  let nseg = Array.length mf.mf_segments in
  check (nseg >= 2) "%s: only %d segment(s)" name nseg;
  let mid = mf.mf_segments.(nseg / 2).sg_last_tick in
  let cover = Replay.Seglog.covering_segment mf ~upto:mid in
  let window () =
    Run.replay_streamed ~config:rconfig ~io ~upto_tick:mid ~dir instr
  in
  let win, t_win = timed window in
  for _ = 2 to windows do
    let w, t = timed window in
    add "window_replay_s" t;
    check (w.st_digests = win.st_digests) "%s: windowed replays differ" name
  done;
  add "window_replay_s" t_win;
  addi "seglog.window_segments" win.st_segments_loaded;
  check win.st_halted "%s: windowed replay ran to completion" name;
  check
    (win.st_segments_loaded <= cover + 1)
    "%s: window read %d segments, needs %d" name win.st_segments_loaded
    (cover + 1);
  (match
     (List.assoc_opt cover full.st_digests, List.assoc_opt cover win.st_digests)
   with
  | Some df, Some dw when df = dw -> ()
  | _ -> check false "%s: windowed digest differs at segment %d" name cover);
  if trace then begin
    let eo, t_eng = engine_record p s in
    check (eo.o_ticks = o.o_ticks) "%s: bare engine run differs" name;
    add "seglog.record_other_s" (t_rec -. t_eng);
    let loaded, t_stream =
      timed (fun () ->
          let _, pull = Replay.Seglog.stream ~dir in
          let rec drain n = match pull () with Some _ -> drain (n + 1) | None -> n in
          drain 0)
    in
    check (loaded = nseg) "%s: streamed %d of %d segments" name loaded nseg;
    add "seglog.stream_s" t_stream;
    let log =
      match eo.o_recorder with
      | Some rc -> rc.Replay.Recorder.log
      | None -> failwith "engine returned no recorder"
    in
    let _, t_eng = engine_replay p s log in
    add "seglog.replay_other_s" (t_rep -. t_stream -. t_eng)
  end;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Workloads *)

type ctx = {
  trace : bool;
  rng : Random.State.t;
  work : string;  (** this run's directory; removed at exit *)
  golden : (string, golden) Hashtbl.t;
}

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* drawn scheduler seeds skip 1, the canonical op's *)
let draw_spec rng strategy =
  {
    sched = 2 + Random.State.int rng 1_000_000;
    io_seed = Random.State.int rng 1_000_000;
    strategy;
  }

let all_progs ctx = List.map (fun b -> make_prog ctx.golden b ~scale:b.R.b_eval_scale) R.all

type workload = {
  setup : ctx -> unit;  (** one set-up repetition (timed as [setup_s]) *)
  round : ctx -> unit;  (** one round of the closed loop *)
  probe : (ctx -> unit) option;
}

(** Set-up analysis: each program is parsed, analyzed cold into a fresh
    cache, re-analyzed from it and instrumented again from outside. *)
let setup_analyses ctx progs =
  let dir = Filename.concat ctx.work "setup-cache" in
  let cache = Ancache.create ~dir () in
  List.iter
    (fun p ->
      parse p;
      attempt "cold analysis" (fun () -> analyze_cold ~trace:ctx.trace ~cache p);
      reanalyze ~hits:setup_hits ~trace:ctx.trace ~cache p;
      attempt "instrument" (fun () -> instrument p))
    progs;
  entry_bytes cache;
  rm_rf dir

(** The window probe of the workloads whose round records no segments:
    knot's canonical execution at evaluation scale, in small segments. *)
let window_probe ctx knot =
  attempt "window probe"
    (seg_op ~trace:ctx.trace
       ~dir:(Filename.concat ctx.work "probe-segments")
       ~events_per_segment:64 ~windows:window_reps knot canonical)

(** Programs whose [storm] recordings do not replay, a known engine
    defect: the replay times out on most seeds
    ([chimera stress radix --strategies storm --seeds 1..30] diverges on
    22 of 30). The workload must not fail, so these programs take no
    storm op; every other (program, strategy) pair replays. *)
let storm_unreplayable = [ "radix" ]

(** record-replay: analysis in set-up; each round records and replays,
    per program, the canonical execution plus one seeded execution per
    strategy (no [storm] one for {!storm_unreplayable}). *)
let record_replay_workload ctx =
  let progs = shuffle ctx.rng (all_progs ctx) in
  let knot = List.find (fun p -> p.b.b_name = "knot") progs in
  let ops =
    List.concat_map
      (fun p ->
        let drawn =
          List.map (draw_spec ctx.rng) (shuffle ctx.rng E.all_strategies)
          |> List.filter (fun s ->
                 not (s.strategy = E.Sstorm
                      && List.mem p.b.b_name storm_unreplayable))
        in
        List.map (fun s -> (p, s)) (canonical :: drawn))
      progs
  in
  let setup ctx =
    setup_analyses ctx progs;
    List.iter (fun (p, s) -> attempt "native" (fun () -> native p s)) ops
  in
  let round ctx =
    List.iter
      (fun (p, s) -> attempt (spec_name p s) (rr_op ~trace:ctx.trace p s))
      ops
  in
  { setup; round; probe = Some (fun ctx -> window_probe ctx knot) }

(** The sustained server and its load: knot serving [sustained_requests]
    requests through the spilling recorder. *)
let sustained_server = "knot"
let sustained_requests = 1000
let sustained_events_per_segment = 1024

let sustained_workload ctx =
  let p = make_prog ctx.golden (R.by_name sustained_server) ~scale:sustained_requests in
  let s = draw_spec ctx.rng E.Sdefault in
  let setup ctx =
    setup_analyses ctx [ p ];
    attempt "native" (fun () -> native p s)
  in
  let round ctx =
    attempt (spec_name p s)
      (seg_op ~trace:ctx.trace
         ~dir:(Filename.concat ctx.work "segments")
         ~events_per_segment:sustained_events_per_segment ~windows:1 p s)
  in
  { setup; round; probe = None }

let workloads =
  [
    ("record-replay", record_replay_workload);
    ("sustained-segmented", sustained_workload);
  ]

(* ------------------------------------------------------------------ *)
(* Reporting *)

let end_to_end =
  [
    ("setup_s", "s"); ("analyze_s", "s"); ("reanalyze_s", "s");
    ("record_s", "s"); ("replay_s", "s"); ("window_replay_s", "s");
    ("record_overhead_x", "x"); ("log_z_bytes", "bytes");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("minic.parse_s", "s"); ("minic.typecheck_s", "s");
    ("pointer.s", "s"); ("relay.s", "s"); ("relay.static_pairs", "count");
    ("mhp.s", "s"); ("mhp.pruned_pairs", "count");
    ("profiling.s", "s"); ("profiling.runs", "count");
    ("profiling.concurrent_pairs", "count");
    ("plan.s", "s"); ("plan.locks", "count");
    ("lockopt.s", "s"); ("lockopt.elided", "count");
    ("analyze.other_s", "s");
    ("instrument.apply_s", "s");
    ("ancache.hit_s", "s"); ("ancache.find_s", "s"); ("ancache.other_s", "s");
    ("ancache.entry_bytes", "bytes");
    ("engine.record_s", "s"); ("engine.record_s.default", "s");
    ("engine.record_s.pct", "s"); ("engine.record_s.storm", "s");
    ("engine.replay_s", "s"); ("engine.stmts", "count");
    ("engine.ticks", "count"); ("engine.record_ns_per_stmt", "ns");
    ("engine.replay_ns_per_stmt", "ns");
    ("weaklock.acq", "count"); ("weaklock.forced", "count");
    ("weaklock.block_ticks", "count");
    ("log.encode_s", "s"); ("log.decode_s", "s"); ("log.raw_bytes", "bytes");
    ("zcompress.s", "s"); ("zcompress.mb_per_s", "MB/s");
    ("runner.record_other_s", "s"); ("runner.replay_other_s", "s");
    ("seglog.segments", "count"); ("seglog.peak_raw_bytes", "bytes");
    ("seglog.disk_bytes", "bytes"); ("seglog.stream_s", "s");
    ("seglog.window_segments", "count"); ("seglog.record_other_s", "s");
    ("seglog.replay_other_s", "s");
    ("trace.overhead_s", "s"); ("fail_rate", "ratio");
  ]

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(** Ratios and run-level metrics derived from the medians. *)
let derived ~overhead name =
  let get k = Option.value ~default:0. (value k) in
  let ratio a b = if get b > 0. then get a /. get b else 0. in
  match name with
  | "peak_heap_mb" -> peak_heap_mb ()
  | "fail_rate" -> float_of_int !failed /. float_of_int (max 1 !attempted)
  | "trace.overhead_s" -> overhead
  | "engine.record_ns_per_stmt" -> 1e9 *. ratio "engine.record_s" "engine.stmts"
  | "engine.replay_ns_per_stmt" -> 1e9 *. ratio "engine.replay_s" "engine.stmts"
  | "zcompress.mb_per_s" -> ratio "log.raw_bytes" "zcompress.s" /. 1048576.
  | k -> get k

let result_json ~overhead metrics =
  let metric (name, unit) =
    let v = derived ~overhead name in
    Fmt.str {|"%s": {"value": %.17g, "unit": "%s"}|} name v unit
  in
  Fmt.str {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (!failed = 0) !attempted !failed
    (String.concat ", " (List.map metric metrics))

(* ------------------------------------------------------------------ *)
(* Main *)

let usage =
  "chimera_bench --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "workload name");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end, 1: per-layer");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let make =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        Fmt.epr "unknown workload %S (have: %s)@." !workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  let work = Filename.concat workdir (string_of_int (Unix.getpid ())) in
  (try Unix.mkdir workdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir work 0o755;
  let ctx =
    {
      trace = !trace = 1;
      rng = Random.State.make [| !seed |];
      work;
      golden = load_golden ();
    }
  in
  Fun.protect
    ~finally:(fun () ->
      rm_rf work;
      try Sys.rmdir workdir with Sys_error _ -> ())
    (fun () ->
      let w = make ctx in
      let deadline = now_s () +. !seconds in
      let untraced_walls = ref [] and traced_walls = ref [] in
      let cycles = ref 0 in
      (* each step starts from a compacted heap, not from whatever the
         step before it left behind *)
      let step f =
        Gc.compact ();
        timed f
      in
      (* Set-up, round and probe take turns until the deadline, so each
         samples the host over the whole run: on a shared host whose speed
         drifts over seconds, set-ups bunched at the start of a run spread
         much more from run to run. A traced run alternates untraced and
         traced rounds and needs one of each. *)
      while !cycles < min_cycles || now_s () < deadline do
        let (), t = step (fun () -> w.setup ctx) in
        add "setup_s" t;
        close_unit Setup;
        let traced = ctx.trace && !cycles mod 2 = 1 in
        let (), t = step (fun () -> w.round { ctx with trace = traced }) in
        if ctx.trace && not traced then begin
          untraced_walls := t :: !untraced_walls;
          discard_unit ()
        end
        else begin
          traced_walls := t :: !traced_walls;
          close_unit Loop
        end;
        Option.iter
          (fun probe ->
            ignore (step (fun () -> probe ctx));
            close_unit Probe)
          w.probe;
        incr cycles
      done;
      let overhead =
        match (!traced_walls, !untraced_walls) with
        | (_ :: _ as tr), (_ :: _ as un) -> median tr -. median un
        | _ -> 0.
      in
      Fmt.epr "%s: seed %d, %d cycles, %d ops attempted, %d failed@."
        !workload !seed !cycles !attempted !failed;
      print_endline
        (result_json ~overhead (if ctx.trace then per_layer else end_to_end)))
