(** Alcotest, with its assertions serialized across domains.

    Alcotest prints every assertion through one shared [Format]
    formatter, and a formatter is not domain-safe: cases asserting from
    several domains at once corrupt its queue ([Stdlib.Queue.Empty] from
    [Format.advance_left]). The test suites are compiled with this module
    opened, so their [Alcotest.check] and friends resolve to the versions
    below, which make Alcotest's own call under one lock. The lock never
    covers test code: [check_raises] and [match_raises] run their thunk
    before taking it. *)

module Alcotest = struct
  include Alcotest

  let lock = Mutex.create ()
  let serial f = Mutex.protect lock f

  let check ?here ?pos t msg expected actual =
    serial (fun () -> Alcotest.check ?here ?pos t msg expected actual)

  let check' ?here ?pos t ~msg ~expected ~actual =
    serial (fun () -> Alcotest.check' ?here ?pos t ~msg ~expected ~actual)

  let fail ?here ?pos msg = serial (fun () -> Alcotest.fail ?here ?pos msg)
  let failf ?here ?pos fmt = Fmt.kstr (fun msg -> fail ?here ?pos msg) fmt

  (* run [f] outside the lock, then replay its outcome inside it *)
  let outcome f = match f () with () -> None | exception e -> Some e

  let check_raises ?here ?pos msg exn f =
    let outcome = outcome f in
    serial (fun () ->
        Alcotest.check_raises ?here ?pos msg exn (fun () ->
            Option.iter raise outcome))

  let match_raises ?here ?pos msg is_expected f =
    let outcome = outcome f in
    serial (fun () ->
        Alcotest.match_raises ?here ?pos msg is_expected (fun () ->
            Option.iter raise outcome))
end
