(** Tests for the simulator engine: MiniC semantics (arithmetic, arrays,
    structs, pointers, recursion, control flow), scheduling determinism
    for a fixed seed, racy-outcome divergence across seeds, I/O latency
    hiding, fault detection, and the weak-lock timeout escape hatch. *)

let parse src = Minic.Typecheck.parse_and_check ~file:"test.mc" src

let run ?(seed = 1) ?(cores = 4) ?config src =
  let config =
    match config with
    | Some c -> c
    | None -> { Interp.Engine.default_config with seed; cores }
  in
  let io = Interp.Iomodel.random ~seed:99 in
  Interp.Engine.run ~config ~mode:Interp.Engine.Native ~io (parse src)

let outputs o = List.map snd o.Interp.Engine.o_outputs

let check_outputs name expected src =
  let o = run src in
  List.iter
    (fun (p, m) ->
      Alcotest.failf "fault in %a: %s" Runtime.Key.pp_tid_path p m)
    o.o_faults;
  Alcotest.(check (list int)) name expected (outputs o)

(* ------------------------------------------------------------------ *)
(* Sequential semantics *)

let test_arith () =
  check_outputs "arith" [ 14; 1; 6; -3; 1; 0; 12 ]
    {|int main() {
        output(2 + 3 * 4);
        output(7 % 2);
        output(25 / 4);
        output(0 - 3);
        output(5 > 4 && 2 < 3);
        output(!7);
        output(4 | 8);
        return 0;
      }|}

let test_shortcut_eval () =
  check_outputs "shortcut && avoids division by zero" [ 0; 1 ]
    {|int main() {
        int z; z = 0;
        output(z != 0 && 10 / z > 1);
        output(z == 0 || 10 / z > 1);
        return 0;
      }|}

let test_arrays () =
  check_outputs "array sum" [ 45 ]
    {|int a[10];
      int main() {
        int i; int s; s = 0;
        for (i = 0; i < 10; i++) { a[i] = i; }
        for (i = 0; i < 10; i++) { s = s + a[i]; }
        output(s);
        return 0;
      }|}

let test_2d_arrays () =
  check_outputs "2d array" [ 7 ]
    {|int m[3][4];
      int main() {
        m[2][3] = 7;
        output(m[2][3]);
        return 0;
      }|}

let test_structs () =
  check_outputs "struct fields + arrow" [ 5; 11 ]
    {|struct pt { int x; int y; };
      struct pt g;
      int main() {
        struct pt *p;
        g.x = 5;
        p = &g;
        p->y = p->x + 6;
        output(g.x);
        output(g.y);
        return 0;
      }|}

let test_pointers () =
  check_outputs "pointer arithmetic over array" [ 30 ]
    {|int a[4] = {1, 2, 3, 24};
      int main() {
        int *p; int s; int i;
        p = a; s = 0;
        for (i = 0; i < 4; i++) { s = s + *(p + i); }
        output(s);
        return 0;
      }|}

let test_recursion () =
  check_outputs "factorial" [ 120 ]
    {|int fact(int n) {
        int rest;
        if (n <= 1) { return 1; }
        rest = fact(n - 1);
        return n * rest;
      }
      int main() { int r; r = fact(5); output(r); return 0; }|}

let test_break_continue () =
  check_outputs "break/continue" [ 16 ]
    {|int main() {
        int i; int s; s = 0;
        for (i = 0; i < 100; i++) {
          if (i % 2 == 0) { continue; }
          if (i > 7) { break; }
          s = s + i;
        }
        output(s);
        return 0;
      }|}

let test_globals_initialized () =
  check_outputs "global initializers" [ 10; 0 ]
    {|int g = 10;
      int z;
      int main() { output(g); output(z); return 0; }|}

let test_malloc () =
  check_outputs "heap blocks" [ 5; 9 ]
    {|int main() {
        int *p; int *q;
        p = malloc(2);
        q = malloc(3);
        p[0] = 5; p[1] = 4;
        q[0] = p[0] + p[1];
        output(p[0]);
        output(q[0]);
        free(p);
        return 0;
      }|}

let test_fault_oob () =
  let o = run {|int a[2]; int main() { a[5] = 1; return 0; }|} in
  Alcotest.(check int) "one fault" 1 (List.length o.o_faults);
  Alcotest.(check bool) "out-of-bounds message" true
    (match o.o_faults with
    | [ (_, m) ] ->
        Testutil.contains m "out-of-bounds"
    | _ -> false)

let test_fault_div0 () =
  let o = run {|int main() { int z; z = 0; output(1 / z); return 0; }|} in
  Alcotest.(check int) "one fault" 1 (List.length o.o_faults)

let test_fault_use_after_free () =
  let o =
    run {|int main() { int *p; p = malloc(1); free(p); *p = 1; return 0; }|}
  in
  Alcotest.(check int) "one fault" 1 (List.length o.o_faults)

let test_exit_builtin () =
  let o =
    run {|int main() { output(1); exit(3); output(2); return 0; }|}
  in
  Alcotest.(check (option int)) "exit code" (Some 3) o.o_exit;
  Alcotest.(check (list int)) "stops at exit" [ 1 ] (outputs o)

(* ------------------------------------------------------------------ *)
(* Threads & scheduling *)

let racy_src =
  {|int counter = 0;
    void w(int *u) {
      int i; int tmp;
      for (i = 0; i < 30; i++) { tmp = counter; counter = tmp + 1; }
    }
    int main() {
      int t1; int t2;
      t1 = spawn(w, &counter); t2 = spawn(w, &counter);
      join(t1); join(t2);
      output(counter);
      return 0;
    }|}

let test_same_seed_same_outcome () =
  let a = run ~seed:5 racy_src and b = run ~seed:5 racy_src in
  Alcotest.(check (list int)) "identical seeds identical runs" (outputs a)
    (outputs b);
  Alcotest.(check int) "same ticks" a.o_ticks b.o_ticks

let test_races_diverge_across_seeds () =
  let results =
    List.map (fun seed -> outputs (run ~seed racy_src)) [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  let distinct = List.sort_uniq compare results in
  Alcotest.(check bool) "racy counter varies with schedule" true
    (List.length distinct > 1);
  (* lost updates only: every outcome is between 30 and 60 *)
  List.iter
    (fun r ->
      match r with
      | [ v ] ->
          Alcotest.(check bool) (Fmt.str "outcome %d in range" v) true
            (v >= 30 && v <= 60)
      | _ -> Alcotest.fail "expected one output")
    results

let test_mutex_protects () =
  let src =
    {|int counter = 0; int m;
      void w(int *u) {
        int i; int tmp;
        for (i = 0; i < 30; i++) {
          lock(&m); tmp = counter; counter = tmp + 1; unlock(&m);
        }
      }
      int main() {
        int t1; int t2;
        t1 = spawn(w, &counter); t2 = spawn(w, &counter);
        join(t1); join(t2);
        output(counter);
        return 0;
      }|}
  in
  List.iter
    (fun seed ->
      Alcotest.(check (list int))
        (Fmt.str "locked counter exact (seed %d)" seed)
        [ 60 ] (outputs (run ~seed src)))
    [ 1; 2; 3; 4; 5 ]

let test_barrier_phases () =
  let src =
    {|int a[4]; int b[4]; int bar;
      int ids[4];
      void w(int *idp) {
        int id; int left;
        id = *idp;
        a[id] = id + 1;
        barrier_wait(&bar);
        left = (id + 3) % 4;
        b[id] = a[left];
        barrier_wait(&bar);
      }
      int main() {
        int t[4]; int i; int s;
        barrier_init(&bar, 4);
        for (i = 0; i < 4; i++) { ids[i] = i; t[i] = spawn(w, &ids[i]); }
        for (i = 0; i < 4; i++) { join(t[i]); }
        s = 0;
        for (i = 0; i < 4; i++) { s = s * 10 + b[i]; }
        output(s);
        return 0;
      }|}
  in
  (* b[i] = a[(i+3) mod 4] = ((i+3) mod 4) + 1: [4;1;2;3] -> 4123 *)
  List.iter
    (fun seed ->
      Alcotest.(check (list int))
        (Fmt.str "barrier ordering (seed %d)" seed)
        [ 4123 ] (outputs (run ~seed src)))
    [ 1; 5; 9 ]

let test_cond_producer_consumer () =
  let src =
    {|int q[8]; int head = 0; int tail = 0;
      int qlock; int nonempty;
      int done_flag = 0;
      int total = 0;
      void consumer(int *u) {
        int more; int v;
        more = 1;
        while (more) {
          v = 0 - 1;
          lock(&qlock);
          while (head == tail && done_flag == 0) { cond_wait(&nonempty, &qlock); }
          if (head < tail) { v = q[head % 8]; head = head + 1; }
          unlock(&qlock);
          if (v < 0) { more = 0; } else { total = total + v; }
        }
      }
      int main() {
        int t; int i;
        t = spawn(consumer, &total);
        for (i = 1; i <= 10; i++) {
          lock(&qlock);
          q[tail % 8] = i;
          tail = tail + 1;
          cond_signal(&nonempty);
          unlock(&qlock);
        }
        lock(&qlock);
        done_flag = 1;
        cond_broadcast(&nonempty);
        unlock(&qlock);
        join(t);
        output(total);
        return 0;
      }|}
  in
  List.iter
    (fun seed ->
      Alcotest.(check (list int))
        (Fmt.str "producer/consumer sum (seed %d)" seed)
        [ 55 ] (outputs (run ~seed src)))
    [ 2; 4; 6 ]

let test_spawn_arg_and_tids () =
  check_outputs "spawn passes pointer; join works" [ 3 ]
    {|void child(int *p) { *p = *p + 1; }
      int main() {
        int v; int t1; int t2; int t3;
        v = 0;
        t1 = spawn(child, &v); join(t1);
        t2 = spawn(child, &v); join(t2);
        t3 = spawn(child, &v); join(t3);
        output(v);
        return 0;
      }|}

let test_more_threads_than_cores () =
  let src =
    {|int done_count = 0; int m;
      void w(int *u) {
        int i; int x; x = 0;
        for (i = 0; i < 20; i++) { x = x + i; }
        lock(&m); done_count = done_count + 1; unlock(&m);
      }
      int main() {
        int t[8]; int i;
        for (i = 0; i < 8; i++) { t[i] = spawn(w, &m); }
        for (i = 0; i < 8; i++) { join(t[i]); }
        output(done_count);
        return 0;
      }|}
  in
  let o = run ~cores:2 src in
  Alcotest.(check (list int)) "8 threads on 2 cores" [ 8 ] (outputs o)

let test_parallel_speedup () =
  (* embarrassingly parallel work must get faster with more cores *)
  let src =
    {|int sink[4];
      int ids[4];
      void w(int *idp) {
        int i; int x; int id;
        id = *idp; x = 0;
        for (i = 0; i < 200; i++) { x = x + i; }
        sink[id] = x;
      }
      int main() {
        int t[4]; int i;
        for (i = 0; i < 4; i++) { ids[i] = i; t[i] = spawn(w, &ids[i]); }
        for (i = 0; i < 4; i++) { join(t[i]); }
        output(sink[0] + sink[3]);
        return 0;
      }|}
  in
  let one = run ~cores:1 src and four = run ~cores:4 src in
  Alcotest.(check (list int)) "same result" (outputs one) (outputs four);
  Alcotest.(check bool)
    (Fmt.str "4 cores faster: %d vs %d" four.o_ticks one.o_ticks)
    true
    (float_of_int four.o_ticks < 0.45 *. float_of_int one.o_ticks)

let test_io_latency_overlap () =
  (* a compute thread should hide a network wait *)
  let src =
    {|int buf[8];
      int out = 0;
      void reader(int *u) { int got; got = net_read(buf, 8); out = got; }
      int main() {
        int t; int i; int x; x = 0;
        t = spawn(reader, &out);
        for (i = 0; i < 50; i++) { x = x + i; }
        join(t);
        output(out);
        output(x);
        return 0;
      }|}
  in
  let o = run src in
  Alcotest.(check bool) "read returned data" true
    (match outputs o with got :: _ -> got > 0 | [] -> false);
  (* total time ≈ network latency, not latency + compute *)
  Alcotest.(check bool) "latency dominates" true
    (o.o_ticks < Interp.Engine.default_config.cost.l_net + 2500)

let test_weak_timeout_breaks_deadlock () =
  (* hand-instrumented program: a weak lock held across a mutex acquire
     that another thread owns while wanting the weak lock — the paper's
     deadlock case, resolved by timeout-preemption *)
  let p =
    parse
      {|int m; int x; int y;
        void a(int *u) { lock(&m); x = 1; unlock(&m); }
        void b(int *u) { lock(&m); y = 1; unlock(&m); }
        int main() { int t1; int t2;
          t1 = spawn(a, &x); t2 = spawn(b, &y);
          join(t1); join(t2);
          output(x + y);
          return 0; }|}
  in
  (* wrap each worker body in a total weak-lock region by hand *)
  let wlock = { Minic.Ast.wl_id = 0; wl_gran = Minic.Ast.Gbb } in
  let wrap (fd : Minic.Ast.fundec) =
    if fd.f_name = "a" || fd.f_name = "b" then
      {
        fd with
        f_body =
          Minic.Ast.Fresh.stmt (WeakEnter [ { wa_lock = wlock; wa_ranges = [] } ])
          :: fd.f_body
          @ [ Minic.Ast.Fresh.stmt (WeakExit [ wlock ]) ];
      }
    else fd
  in
  Minic.Ast.Fresh.reset_from p;
  let p = { p with p_funs = List.map wrap p.p_funs } in
  let config =
    { Interp.Engine.default_config with seed = 3; cores = 4; weak_timeout = 500 }
  in
  let io = Interp.Iomodel.random ~seed:1 in
  let o = Interp.Engine.run ~config ~mode:Interp.Engine.Record ~io p in
  Alcotest.(check bool) "completes despite weak/mutex interleaving" false
    o.o_timed_out;
  Alcotest.(check (list int)) "result" [ 2 ] (outputs o)

(* ------------------------------------------------------------------ *)
(* Ill-typed nodes fault when they execute *)

(* [p] with every assignment to [x] in function [f] retargeted to [lv]
   (the typechecker rejects such lvalues in source) *)
let retarget_assign p ~f (lv : Minic.Ast.lval) =
  let open Minic.Ast in
  let rec block b = List.map stmt b
  and stmt s =
    match s.skind with
    | Assign (Var "x", e) -> { s with skind = Assign (lv, e) }
    | If (c, b1, b2) -> { s with skind = If (c, block b1, block b2) }
    | _ -> s
  in
  {
    p with
    p_funs =
      List.map
        (fun fd ->
          if fd.f_name = f then { fd with f_body = block fd.f_body } else fd)
        p.p_funs;
  }

let test_ill_typed_faults_when_run () =
  let open Minic.Ast in
  let faulting =
    parse
      {|int x; int *px;
        void f() { output(7); x = 1; output(8); }
        int main() { px = &x; f(); output(9); return 0; }|}
  in
  let untaken =
    parse
      {|int x; int *px;
        void f() { output(7); if (x) { x = 2; } output(8); }
        int main() { px = &x; f(); output(9); return 0; }|}
  in
  let run_p p =
    Interp.Engine.run ~config:Interp.Engine.default_config
      ~mode:Interp.Engine.Native ~io:(Interp.Iomodel.random ~seed:99) p
  in
  List.iter
    (fun (what, lv, msg) ->
      let o = run_p (retarget_assign faulting ~f:"f" lv) in
      Alcotest.(check (list int)) (what ^ ": output before the node") [ 7 ]
        (outputs o);
      Alcotest.(check (list (pair string string)))
        (what ^ ": the node faults the thread")
        [ ("T0", msg) ]
        (List.map
           (fun (p, m) -> (Fmt.str "%a" Runtime.Key.pp_tid_path p, m))
           o.o_faults);
      let o = run_p (retarget_assign untaken ~f:"f" lv) in
      Alcotest.(check (list int)) (what ^ ": untaken copy never runs")
        [ 7; 8; 9 ] (outputs o);
      Alcotest.(check int) (what ^ ": untaken copy never faults") 0
        (List.length o.o_faults))
    [
      ("field on int", Field (Var "x", "f"), "field access on int");
      ("-> on int", Arrow (Lval (Var "x"), "f"), "-> on non-pointer 0");
      ("-> on int*", Arrow (Lval (Var "px"), "f"), "-> on int*");
    ]

(* ------------------------------------------------------------------ *)
(* Memory-hook order of builtin arguments and loop-lock range bounds *)

(* Every builtin that reads an argument from memory, plus a two-lock
   [WeakEnter] whose first lock claims two ranges; ticks cannot pin the
   order of these reads (evaluation charges none), so the test pins the
   full [on_mem] event list. *)
let hook_order_src =
  {|int m; int c; int bar; int one = 1; int flag = 0; int nmax = 2;
    int nsz = 3; int code = 0; int buf[4]; int fbuf[4];
    int *pm; int *pc; int *pbar; int *pone; int *pbuf; int *pend;
    int *pf; int *pfend;
    void child(int *arg) {
      lock(pm);
      flag = *arg;
      cond_signal(pc);
      unlock(pm);
    }
    void region(int *u) { output(*u); }
    int main() {
      int t; int k; int *h;
      pm = &m; pc = &c; pbar = &bar; pone = &one;
      pbuf = buf; pend = &buf[3]; pf = fbuf; pfend = &fbuf[2];
      k = input();
      barrier_init(pbar, one);
      barrier_wait(pbar);
      lock(pm);
      t = spawn(child, pone);
      while (flag == 0) { cond_wait(pc, pm); }
      cond_broadcast(pc);
      unlock(pm);
      join(t);
      net_read(pbuf, nmax);
      file_read(pf, nmax);
      h = malloc(nsz);
      free(h);
      region(&k);
      exit(code);
      return 0;
    }|}

let hook_order_events () =
  let open Minic.Ast in
  let p = parse hook_order_src in
  Fresh.reset_from p;
  let var v = Lval (Var v) in
  let range lo hi wr_write = { wr_lo = var lo; wr_hi = var hi; wr_write } in
  let bb = { wl_id = 1; wl_gran = Gbb } in
  let loop = { wl_id = 2; wl_gran = Gloop } in
  let wrap (fd : fundec) =
    if fd.f_name <> "region" then fd
    else
      {
        fd with
        f_body =
          Fresh.stmt
            (WeakEnter
               [
                 {
                   wa_lock = bb;
                   wa_ranges =
                     [ range "pbuf" "pend" true; range "pf" "pfend" false ];
                 };
                 (* two blocks: the claim falls back to total *)
                 { wa_lock = loop; wa_ranges = [ range "pf" "pend" false ] };
               ])
          :: fd.f_body
          @ [ Fresh.stmt (WeakExit [ loop; bb ]) ];
      }
  in
  let p = { p with p_funs = List.map wrap p.p_funs } in
  let events = ref [] in
  let hooks = Interp.Engine.no_hooks () in
  hooks.on_mem <-
    Some
      (fun tid a ~write ~sid ->
        events :=
          Fmt.str "%d %a %s %d" tid Runtime.Key.pp_addr a
            (if write then "w" else "r")
            sid
          :: !events);
  let o =
    Interp.Engine.run ~hooks
      ~config:{ Interp.Engine.default_config with cores = 2 }
      ~mode:Interp.Engine.Native ~io:(Interp.Iomodel.random ~seed:99) p
  in
  (o, List.rev !events)

(* recorded from the engine, not derived: a change here changes what
   dynamic analyses observe *)
let expected_hook_order =
  [
    "0 pm+0 w 6";
    "0 pc+0 w 7";
    "0 pbar+0 w 8";
    "0 pone+0 w 9";
    "0 pbuf+0 w 10";
    "0 pend+0 w 11";
    "0 pf+0 w 12";
    "0 pfend+0 w 13";
    "0 frame(T0,0)+1 w 14";
    "0 pbar+0 r 15";
    "0 one+0 r 15";
    "0 pbar+0 r 16";
    "0 pm+0 r 17";
    "0 pone+0 r 18";
    "0 frame(T0,0)+0 w 18";
    "0 flag+0 r 20";
    "0 pm+0 r 19";
    "0 pc+0 r 19";
    "1 pm+0 r 1";
    "1 frame(T0.0,0)+0 r 2";
    "1 one+0 r 2";
    "1 flag+0 w 2";
    "1 pc+0 r 3";
    "1 pm+0 r 4";
    "0 flag+0 r 20";
    "0 pc+0 r 21";
    "0 pm+0 r 22";
    "0 frame(T0,0)+0 r 23";
    "0 pbuf+0 r 24";
    "0 nmax+0 r 24";
    "0 buf+0 w 24";
    "0 buf+1 w 24";
    "0 pf+0 r 25";
    "0 nmax+0 r 25";
    "0 fbuf+0 w 25";
    "0 fbuf+1 w 25";
    "0 nsz+0 r 26";
    "0 frame(T0,0)+2 w 26";
    "0 frame(T0,0)+2 r 27";
    "0 pbuf+0 r 32";
    "0 pend+0 r 32";
    "0 pf+0 r 32";
    "0 pfend+0 r 32";
    "0 pf+0 r 32";
    "0 pend+0 r 32";
    "0 frame(T0,1)+0 r 5";
    "0 frame(T0,0)+1 r 5";
    "0 code+0 r 29";
  ]

let test_hook_order () =
  let o, events = hook_order_events () in
  Alcotest.(check (option int)) "program exits through exit()" (Some 0) o.o_exit;
  Alcotest.(check (list string)) "on_mem events" expected_hook_order events

(* ------------------------------------------------------------------ *)
(* Mem.state_hash: complete and allocation-order independent *)

(* [n] globals g00..g{n-1} of 3 cells each, allocated in [order], and a
   heap block allocated right after g05 (so its id depends on [order])
   that the last global points into; [poke] edits cells afterwards *)
let build_mem ?(poke = fun _ -> ()) ~order n =
  let open Interp in
  let m = Mem.create () in
  let heap = ref None in
  let globals =
    List.map
      (fun i ->
        let b = Mem.alloc m (Runtime.Key.OGlobal (Fmt.str "g%02d" i)) 3 in
        b.cells.(0) <- Value.VInt i;
        b.cells.(2) <- Value.VFun "main";
        if i = 5 then heap := Some (Mem.alloc m (Runtime.Key.OHeap ([ 1 ], 0)) 2);
        (i, b))
      order
  in
  let heap = Option.get !heap in
  heap.cells.(1) <- Value.VInt 7;
  let g i = List.assoc i globals in
  (g (n - 1)).cells.(1) <- Value.VPtr { p_block = heap.b_id; p_off = 1 };
  poke g;
  Mem.state_hash m

let test_state_hash_complete () =
  let ids = List.init 20 Fun.id in
  let base = build_mem ~order:ids 20 in
  (* g15 sorts after the 10th block: every block must count *)
  let edited =
    build_mem ~order:ids 20 ~poke:(fun g ->
        (g 15).Interp.Mem.cells.(1) <- Interp.Value.VInt 1)
  in
  Alcotest.(check bool) "cell of the 16th block changes the hash" true
    (base <> edited)

let test_state_hash_order_independent () =
  let ids = List.init 20 Fun.id in
  Alcotest.(check int) "block-id order does not matter"
    (build_mem ~order:ids 20)
    (build_mem ~order:(List.rev ids) 20)

let suite =
  [
    Alcotest.test_case "arith" `Quick test_arith;
    Alcotest.test_case "shortcut eval" `Quick test_shortcut_eval;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "2d arrays" `Quick test_2d_arrays;
    Alcotest.test_case "structs" `Quick test_structs;
    Alcotest.test_case "pointer arithmetic" `Quick test_pointers;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "break/continue" `Quick test_break_continue;
    Alcotest.test_case "global init" `Quick test_globals_initialized;
    Alcotest.test_case "malloc/free" `Quick test_malloc;
    Alcotest.test_case "fault: out of bounds" `Quick test_fault_oob;
    Alcotest.test_case "fault: div by zero" `Quick test_fault_div0;
    Alcotest.test_case "fault: use after free" `Quick test_fault_use_after_free;
    Alcotest.test_case "exit" `Quick test_exit_builtin;
    Alcotest.test_case "determinism per seed" `Quick test_same_seed_same_outcome;
    Alcotest.test_case "racy divergence across seeds" `Quick
      test_races_diverge_across_seeds;
    Alcotest.test_case "mutex protects" `Quick test_mutex_protects;
    Alcotest.test_case "barrier phases" `Quick test_barrier_phases;
    Alcotest.test_case "cond producer/consumer" `Quick test_cond_producer_consumer;
    Alcotest.test_case "spawn/join" `Quick test_spawn_arg_and_tids;
    Alcotest.test_case "threads > cores" `Quick test_more_threads_than_cores;
    Alcotest.test_case "parallel speedup" `Quick test_parallel_speedup;
    Alcotest.test_case "io latency overlap" `Quick test_io_latency_overlap;
    Alcotest.test_case "weak timeout breaks deadlock" `Quick
      test_weak_timeout_breaks_deadlock;
    Alcotest.test_case "ill-typed node faults when run" `Quick
      test_ill_typed_faults_when_run;
    Alcotest.test_case "memory-hook order of builtin args and ranges" `Quick
      test_hook_order;
    Alcotest.test_case "state hash covers every block" `Quick
      test_state_hash_complete;
    Alcotest.test_case "state hash ignores block-id order" `Quick
      test_state_hash_order_independent;
  ]
