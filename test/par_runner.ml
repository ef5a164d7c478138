(** Domain-sharded test runner: runs the same suite registry as the
    serial Alcotest binary ({!Suites.all}), but fans whole suites out
    across a {!Par.Pool}. Sharding is at {e suite} granularity — cases
    within a suite run serially, in declaration order — because suites
    may keep private mutable state (e.g. [Test_e2e]'s analysis cache)
    that their cases share.

    The report is deterministic: suites print in registry order with no
    timings, so two runs at any [-j] produce identical output (modulo
    failure backtraces). Exit status is non-zero iff any case failed.

    Usage: [par_runner.exe [-j N]]; [CHIMERA_TEST_JOBS] also sets the
    domain count (the flag wins). *)

type status = Pass | Skipped | Fail of string

type case_result = { cr_name : string; cr_status : status }

(* Alcotest doesn't export its Skip exception; classify by its
   constructor name. *)
let is_skip e =
  let s = Printexc.to_string_default e in
  String.length s >= 4 && String.sub s (String.length s - 4) 4 = "Skip"

let run_case (name, _speed, f) =
  let status =
    try
      f ();
      Pass
    with
    | e when is_skip e -> Skipped
    | e ->
        let bt = Printexc.get_backtrace () in
        Fail
          (if bt = "" then Printexc.to_string e
           else Fmt.str "%s@.%s" (Printexc.to_string e) (String.trim bt))
  in
  { cr_name = name; cr_status = status }

let run_suite (sname, cases) = (sname, List.map run_case cases)

let jobs () =
  let from_env () =
    match Sys.getenv_opt "CHIMERA_TEST_JOBS" with
    | Some s -> int_of_string_opt s
    | None -> None
  in
  let rec from_argv i =
    if i >= Array.length Sys.argv then None
    else
      match Sys.argv.(i) with
      | "-j" when i + 1 < Array.length Sys.argv ->
          int_of_string_opt Sys.argv.(i + 1)
      | s when String.length s > 2 && String.sub s 0 2 = "-j" ->
          int_of_string_opt (String.sub s 2 (String.length s - 2))
      | _ -> from_argv (i + 1)
  in
  match from_argv 1 with
  | Some j when j > 0 -> j
  | _ -> (
      match from_env () with
      | Some j when j > 0 -> j
      | _ -> Par.Pool.default_jobs ())

let () =
  Printexc.record_backtrace true;
  (* Alcotest's assertion output gets formatters of its own: the suites'
     Alcotest_sync lock keeps domains off them one at a time, and no
     other code (the main domain's [Format.std_formatter] included)
     touches them *)
  Alcotest_engine.Formatters.(set_stdout (make_stdout ()));
  Alcotest_engine.Formatters.(set_stderr (make_stderr ()));
  let j = jobs () in
  let results =
    Par.Pool.with_pool ~clamp:false ~domains:j (fun p ->
        Par.Pool.map_list p run_suite Test_suites.Suites.all)
  in
  let total = ref 0 and skipped = ref 0 and failed = ref 0 in
  List.iter
    (fun (sname, crs) ->
      let ok, skip, fail =
        List.fold_left
          (fun (ok, skip, fail) cr ->
            match cr.cr_status with
            | Pass -> (ok + 1, skip, fail)
            | Skipped -> (ok, skip + 1, fail)
            | Fail _ -> (ok, skip, fail + 1))
          (0, 0, 0) crs
      in
      total := !total + List.length crs;
      skipped := !skipped + skip;
      failed := !failed + fail;
      Fmt.pr "%-12s %3d ok%s%s@." sname ok
        (if skip > 0 then Fmt.str ", %d skipped" skip else "")
        (if fail > 0 then Fmt.str ", %d FAILED" fail else "");
      List.iter
        (fun cr ->
          match cr.cr_status with
          | Fail msg -> Fmt.pr "  FAIL [%s > %s]@.    %s@." sname cr.cr_name msg
          | Pass | Skipped -> ())
        crs)
    results;
  Fmt.pr "@.%d tests: %d failed, %d skipped@." !total !failed !skipped;
  if !failed > 0 then exit 1
