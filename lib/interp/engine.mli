(** The multiprocessor simulator: a MiniC interpreter whose threads run as
    coroutines over a tick-based multicore scheduler, with the paper's
    record, replay and weak-lock runtime (see the implementation's header
    and DESIGN.md §11 and §15).

    A run is [run] (or [make_engine] then [run_engine], for callers that
    need the engine while it runs: a spilling recorder pins
    [state_digest] at each seal). Everything else is internal. *)

(** {1 Hooks for profilers and dynamic analyses} *)

type sync_event =
  | SyAcquire of Runtime.Key.addr
  | SyRelease of Runtime.Key.addr
  | SyBarrierArrive of Runtime.Key.addr
  | SyBarrier of Runtime.Key.addr
  | SyCondSignal of Runtime.Key.addr
  | SyCondWake of Runtime.Key.addr
  | SySpawn of int  (** child tid *)
  | SyThreadStart  (** first event in a spawned thread *)
  | SyJoin of int  (** joined child tid *)
  | SyWeakAcq of Minic.Ast.weak_lock
  | SyWeakRel of Minic.Ast.weak_lock

(** Callbacks, keyed by the stable thread id. Hooks observe the run and
    never change it. *)
type hooks = {
  mutable on_enter_fun : (int -> string -> unit) option;
  mutable on_exit_fun : (int -> string -> unit) option;
  mutable on_mem :
    (int -> Runtime.Key.addr -> write:bool -> sid:int -> unit) option;
  mutable on_sync : (int -> sync_event -> unit) option;
  mutable on_loop_iter : (int -> int -> unit) option;  (** tid, lid *)
  mutable on_loop_enter : (int -> int -> unit) option;  (** tid, lid *)
  mutable on_loop_exit : (int -> int -> unit) option;  (** tid, lid *)
  mutable on_stmt : (int -> int -> unit) option;  (** tid, sid *)
}

val no_hooks : unit -> hooks

(** {1 Configuration} *)

type stats = {
  mutable n_stmts : int;
  mutable n_mem_ops : int;
  mutable n_sync_ops : int;
  mutable n_syscalls : int;
  n_weak_acq : int array;  (** by granularity rank *)
  weak_block_ticks : int array;  (** contention, by granularity rank *)
  mutable n_forced : int;
  mutable n_handoff_served : int;
  mutable n_handoff_expired : int;
  mutable log_ticks_sync : int;
  mutable log_ticks_weak : int;
  mutable log_ticks_input : int;
  mutable weak_op_ticks : int;  (** acquire/release + range eval cost *)
}

type mode =
  | Native
  | Record
  | Replay of Replay.Log.t
  | Deterministic
      (** Kendo-style deterministic execution: every synchronization
          operation is arbitrated by deterministic logical time, so the
          execution of a data-race-free program is a function of the
          program and its inputs, with no logging at all. *)

(** Schedule-exploration strategy. [Sdefault] is the seeded round-robin
    scheduler the golden tick counts pin; the adversarial strategies only
    shape recordings, and a log recorded under any strategy replays under
    any other. *)
type strategy =
  | Sdefault  (** seeded quantum round-robin with work stealing *)
  | Spct
      (** PCT-style random priorities with change points at quantum
          expiry *)
  | Sstorm
      (** weak-timeout storm: slashed forced-release timeout, swept more
          often *)

val strategy_name : strategy -> string
val strategy_of_string : string -> strategy option
val all_strategies : strategy list

type config = {
  cores : int;
  seed : int;
  quantum : int;
  weak_timeout : int;
  max_ticks : int;
  cost : Cost.t;
  strategy : strategy;
}

val default_config : config

(** {1 Running} *)

type outcome = {
  o_outputs : (Runtime.Key.tid_path * int) list;
  o_final_hash : int;
  o_ticks : int;
  o_steps : (Runtime.Key.tid_path * int) list;
  o_faults : (Runtime.Key.tid_path * string) list;
  o_exit : int option;
  o_stats : stats;
  o_recorder : Replay.Recorder.t option;
  o_timed_out : bool;
  o_stuck : string list;
      (** per-thread status dump when the run timed out / deadlocked *)
  o_claim_mismatches : Replay.Replayer.claim_mismatch list;
      (** replay only: served weak-lock claims that differ from the
          recorded ones (instrumentation drift); always [] otherwise *)
}

(** An engine ready to run one program once. *)
type t

(** [replayer], when given, overrides the one a [Replay log] mode would
    build (a segment stream, possibly windowed). [sink] receives the
    run's trace events and never affects the simulated execution;
    [phases] attributes host time per phase and reads no clock when
    absent. *)
val make_engine :
  ?config:config ->
  ?hooks:hooks ->
  ?sink:Trace.Sink.t ->
  ?replayer:Replay.Replayer.t ->
  ?phases:Phases.t ->
  mode:mode ->
  io:Iomodel.t ->
  Minic.Ast.program ->
  t

val run_engine : t -> outcome

(** [make_engine] then [run_engine]. *)
val run :
  ?config:config ->
  ?hooks:hooks ->
  ?sink:Trace.Sink.t ->
  ?replayer:Replay.Replayer.t ->
  ?phases:Phases.t ->
  mode:mode ->
  io:Iomodel.t ->
  Minic.Ast.program ->
  outcome

(** {1 Observing a running engine} *)

(** The recorder of a [Record]-mode engine. *)
val recorder : t -> Replay.Recorder.t option

(** Simulated time so far. *)
val ticks : t -> int

(** Deterministic hex digest of the engine's pinned state (memory,
    outputs, per-thread progress, scheduler rng). Comparable only between
    runs at the same logical point. *)
val state_digest : t -> string

(** The weak-lock claims thread [tid] holds for its innermost open
    region, one per lock, in origin space ([] outside any region). *)
val region_claims : t -> tid:int -> Replay.Log.sclaim list
