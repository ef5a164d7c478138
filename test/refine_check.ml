(** Standalone gate for the corpus-driven refinement loop
    (`make refine-check`).

    Library leg, on the pfscan/fft/ocean trio:

    - build a stress corpus in memory (seeds 1..4 x the three
      scheduling strategies, 4 cores), refine the lockopt plan on its
      evidence, and require the safety valve to come back clean — the
      validation re-records every corpus cell with the detector
      attached ([track_weak:true]) and must find zero violations;
    - record and replay the evaluation input under both the lockopt and
      the refined instrumentation: both must satisfy record == replay,
      refined runtime weak-lock acquisitions must never exceed lockopt,
      and at least two of the three applications must drop strictly;
    - a machine-readable report lands in [--json PATH] (default
      /tmp/chimera-refine.json; schema chimera-refine-check/1),
      validated by the shared Bjson reader before it is written.

    CLI leg, end to end through the installed subcommands:

    - [chimera stress --corpus DIR] materialises an on-disk corpus with
      a manifest; [chimera refine --corpus DIR] reloads it, re-derives
      each analysis, emits per-program refined-plan deployments, and
      self-validates (exit 0);
    - hand-corrupting the manifest's [plan_digest] makes the refine
      subcommand report the stale evidence and exit with the typed
      issue status (2) — never a crash.

    Exits 0 when every check passes, 1 otherwise. *)

let failures = ref 0

let check what ok =
  if ok then Fmt.pr "  ok: %s@." what
  else begin
    incr failures;
    Fmt.pr "  FAIL: %s@." what
  end

let cli =
  try Sys.getenv "CHIMERA_CLI"
  with Not_found -> "./_build/default/bin/chimera_cli.exe"

let json_file = ref "/tmp/chimera-refine.json"

let benches = [ "pfscan"; "fft"; "ocean" ]
let seeds = [ 1; 2; 3; 4 ]

let jobs =
  List.concat_map
    (fun strat -> List.map (fun s -> (s, strat)) seeds)
    Interp.Engine.all_strategies

(* ------------------------------------------------------------------ *)
(* library leg *)

type row = {
  r_name : string;
  r_base_acqs : int;
  r_refined_acqs : int;
  r_dropped : int;
  r_violations : int;
  r_rt_lockopt : int;
  r_rt_refined : int;
  r_replay_lockopt : bool;
  r_replay_refined : bool;
}

let run_bench name : row =
  let b = Bench_progs.Registry.by_name name in
  let scale = b.b_eval_scale in
  let an =
    Chimera.Pipeline.analyze ~profile_runs:6
      ~profile_io:(fun i -> b.b_io ~seed:(100 + i) ~scale:b.b_profile_scale)
      (Minic.Parser.parse ~file:name (b.b_source ~workers:4 ~scale))
  in
  let io = b.b_io ~seed:42 ~scale in
  let obs =
    Refine.corpus_observations ~cores:4 ~io ~instrumented:an.an_instrumented
      ~racy_sids:an.an_report.racy_sids ~jobs ()
  in
  let rf = Refine.refine ~min_coverage:2 ~plan:an.an_plan obs in
  let refined = Instrument.Transform.apply an.an_prog rf.rf_plan in
  let va =
    Refine.validate ~cores:4 ~io ~report:an.an_report ~refined ~jobs ()
  in
  let config = { Interp.Engine.default_config with seed = 1; cores = 4 } in
  let run_one prog =
    let r = Chimera.Runner.record ~config ~io prog in
    let rep = Chimera.Runner.replay ~config ~io prog r.Chimera.Runner.rc_log in
    ( Refine.runtime_weak_acqs r.rc_outcome,
      Chimera.Runner.same_execution r.rc_outcome rep = Ok () )
  in
  let rt_base, det_base = run_one an.an_instrumented in
  let rt_ref, det_ref = run_one refined in
  {
    r_name = name;
    r_base_acqs = rf.rf_base_acqs;
    r_refined_acqs = rf.rf_refined_acqs;
    r_dropped = List.length rf.rf_dropped;
    r_violations = List.length va.va_violations;
    r_rt_lockopt = rt_base;
    r_rt_refined = rt_ref;
    r_replay_lockopt = det_base;
    r_replay_refined = det_ref;
  }

let library_leg () =
  Fmt.pr "refinement on the stress trio (seeds %s x default,pct,storm):@."
    (String.concat "," (List.map string_of_int seeds));
  let rows = List.map run_bench benches in
  List.iter
    (fun r ->
      Fmt.pr "  %-8s static %2d -> %2d (%d lock(s) dropped)  rt-acq %3d -> %3d@."
        r.r_name r.r_base_acqs r.r_refined_acqs r.r_dropped r.r_rt_lockopt
        r.r_rt_refined;
      check (Fmt.str "%s: safety valve clean" r.r_name) (r.r_violations = 0);
      check
        (Fmt.str "%s: record == replay under the lockopt plan" r.r_name)
        r.r_replay_lockopt;
      check
        (Fmt.str "%s: record == replay under the refined plan" r.r_name)
        r.r_replay_refined;
      check
        (Fmt.str "%s: refined acquisitions never exceed lockopt" r.r_name)
        (r.r_rt_refined <= r.r_rt_lockopt))
    rows;
  let strict =
    List.length (List.filter (fun r -> r.r_rt_refined < r.r_rt_lockopt) rows)
  in
  check "strict runtime-acquisition drop on >= 2 applications" (strict >= 2);
  rows

(* ------------------------------------------------------------------ *)
(* JSON artifact *)

let emit_report (rows : row list) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"schema\": \"chimera-refine-check/1\",\n";
  Buffer.add_string buf
    (Fmt.str "  \"min_coverage\": 2,\n  \"seeds\": [%s],\n  \"benches\": [\n"
       (String.concat ", " (List.map string_of_int seeds)));
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Fmt.str
           "    {\"name\": \"%s\", \"static_acqs\": %d, \"refined_acqs\": \
            %d,\n\
           \     \"locks_dropped\": %d, \"violations\": %d,\n\
           \     \"rt_acq_lockopt\": %d, \"rt_acq_refined\": %d,\n\
           \     \"replay_lockopt\": %b, \"replay_refined\": %b}%s\n"
           r.r_name r.r_base_acqs r.r_refined_acqs r.r_dropped r.r_violations
           r.r_rt_lockopt r.r_rt_refined r.r_replay_lockopt r.r_replay_refined
           (if i < List.length rows - 1 then "," else "")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let doc = Buffer.contents buf in
  (match Bjson.parse doc with
  | exception Bjson.Bad m -> check (Fmt.str "report JSON parses (%s)" m) false
  | _ -> check "report JSON parses" true);
  let oc = open_out !json_file in
  output_string oc doc;
  close_out oc;
  Fmt.pr "  report: %s@." !json_file

(* ------------------------------------------------------------------ *)
(* CLI leg *)

let sh cmd =
  match Unix.system cmd with
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let cli_leg () =
  Fmt.pr "CLI loop (stress --corpus / refine / corrupted manifest):@.";
  let dir = Filename.temp_file "chimera-refine" "" in
  Sys.remove dir;
  let corpus = Filename.concat dir "corpus" in
  let plans = Filename.concat dir "plans" in
  let quiet = "> /dev/null 2>&1" in
  let rc =
    sh
      (Fmt.str "%s stress %s --seeds 1..3 --corpus %s -j 2 %s" cli
         (String.concat " " benches)
         (Filename.quote corpus) quiet)
  in
  check "chimera stress --corpus exits 0" (rc = 0);
  let manifest = Filename.concat corpus "corpus.json" in
  check "corpus manifest written" (Sys.file_exists manifest);
  let rc =
    sh
      (Fmt.str "%s refine --corpus %s --min-coverage 2 -o %s %s" cli
         (Filename.quote corpus) (Filename.quote plans) quiet)
  in
  check "chimera refine validates its own corpus (exit 0)" (rc = 0);
  List.iter
    (fun b ->
      check
        (Fmt.str "refined deployment emitted for %s" b)
        (Sys.file_exists (Filename.concat plans (b ^ ".refined.json"))))
    benches;
  (* stale evidence: corrupt every plan digest in the manifest and make
     sure the refine subcommand reports it with the typed issue exit *)
  let doc = read_file manifest in
  let corrupted =
    Str.global_replace
      (Str.regexp {|"plan_digest": "[0-9a-f]+"|})
      {|"plan_digest": "deadbeefdeadbeefdeadbeefdeadbeef"|} doc
  in
  check "manifest corruption changed the digest" (corrupted <> doc);
  write_file manifest corrupted;
  let rc =
    sh
      (Fmt.str "%s refine --corpus %s -o %s %s" cli (Filename.quote corpus)
         (Filename.quote plans) quiet)
  in
  check "stale corpus evidence is a typed issue (exit 2)" (rc = 2);
  ignore (sh (Fmt.str "rm -rf %s" (Filename.quote dir)))

let () =
  (match List.tl (Array.to_list Sys.argv) with
  | [] -> ()
  | [ "--json"; f ] -> json_file := f
  | a :: _ ->
      Fmt.epr "refine_check: unknown argument %s@." a;
      exit 2);
  let rows = library_leg () in
  emit_report rows;
  cli_leg ();
  if !failures > 0 then begin
    Fmt.pr "refine-check: %d failure(s)@." !failures;
    exit 1
  end;
  Fmt.pr "refine-check: all checks passed@."
