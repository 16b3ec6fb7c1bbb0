(** Message counters and the engine's lifecycle view.

    Counts sends / deliveries / drops per protocol component (and per
    component+tag), which is how the benchmark harness measures the paper's
    "messages periodically sent" (Section 4) and "messages per round"
    (Section 5.4) claims.  [snapshot]/[sent_since] support windowed
    counting: count only what happens between two instants, e.g. one
    heartbeat period or one consensus round in steady state.

    The engine's lifecycle facts (events executed, timers set / fired /
    cancelled / orphaned / reclaimed, queue and residency high-water marks)
    are stored only in the engine's {!Obs.Registry}, as the [engine.*]
    metrics; the hooks below update those metrics and {!lifecycle} reads
    them back. *)

type counts = { sent : int; delivered : int; dropped : int }

type lifecycle = {
  events_executed : int;  (** events popped and executed by the engine *)
  timers_set : int;
  timers_fired : int;  (** fired = callback actually ran *)
  timers_cancelled : int;
  timers_orphaned : int;
      (** popped [Armed] with a dead owner: the crash, not a fire or a
          cancel, retired the timer.  Closes the conservation law
          [timers_set = fired + cancelled + orphaned + armed-pending]
          (see [Engine.timer_armed]); before this counter existed, crash
          orphans were reclaimed but invisible in the lifecycle ledger. *)
  timers_reclaimed : int;
      (** event-slab slots released when a timer's event was popped
          (fired, cancelled, or owner crashed) — lags [timers_set] by
          exactly the current timer residency *)
  queue_high_water : int;  (** max pending events ever in the queue *)
  timer_residency_high_water : int;
      (** max event-slab slots ever simultaneously held by timers; tracked
          on every arm, so [Engine.timer_residency] can never exceed it at
          any instant (the sim-core bench asserts exactly that) *)
}
(** Engine lifecycle counters: resource-accounting facts about one run,
    complementing the per-component message counters.  Soak tests assert
    bounded residency with these, and the sim-core bench reports them. *)

type t

val create : Obs.Registry.t -> t
(** Registers the eight [engine.*] lifecycle metrics in the registry
    (see [Engine.obs]). *)

type cell
(** The three counters of one (component, tag). *)

val cell : t -> component:string -> tag:string -> cell
(** The key's cell, created (all zeros) on first use.  The engine looks
    it up once per (component, tag) and counts through it. *)

val count_send : cell -> unit
val count_deliver : cell -> unit
val count_drop : cell -> unit

(** {2 Lifecycle accounting (engine-internal hooks)} *)

val on_event_executed : t -> unit
val on_timer_set : t -> unit
val on_timer_fired : t -> unit
val on_timer_cancelled : t -> unit
val on_timer_orphaned : t -> unit
val on_timer_reclaimed : t -> unit

val note_queue_depth : t -> depth:int -> unit
(** Record the current queue depth; retains the maximum seen. *)

val note_timer_residency : t -> residency:int -> unit
(** Record the current timer residency; retains the maximum seen. *)

val lifecycle : t -> lifecycle
(** Current lifecycle counters, read back from the registry, as an
    immutable snapshot. *)

val component_counts : t -> component:string -> counts
(** Aggregated over all tags of the component; zeros if unknown. *)

val total : t -> counts

type snapshot = (string * string * counts) list
(** Per-(component, tag) counters, sorted by (component, tag): a pure
    function of the counts, independent of table insertion history (see
    HACKING.md, "Determinism rules"). *)

val snapshot : t -> snapshot

val sent_since : t -> snapshot -> component:string -> int
(** Messages of [component] sent since the snapshot was taken. *)
