(** The discrete-event simulator core.

    An engine simulates the paper's system model (Section 2.1): a finite set
    of [n] processes, fully connected by point-to-point links, advancing an
    abstract global clock.  Processes fail only by crashing, permanently.
    Protocol components attach per-process message handlers and timers; the
    engine delivers messages according to the configured {!Link} model,
    fires timers, executes crashes, and records everything in a {!Trace},
    in the {!Stats} message ledger and in its {!Obs.Registry} ({!obs}),
    which alone stores the lifecycle facts that {!Stats.lifecycle} reads.

    Determinism: the engine owns a seeded {!Rng} used exclusively for link
    fates, and same-instant events fire in scheduling order, so a run is a
    pure function of (seed, configuration, component code).  Internally the
    engine keeps one queue: every scheduled thing — message delivery,
    crash, {!at} action, timer occurrence — holds one slot of an event
    slab, and one hierarchical {!Timer_wheel} orders the pending slots by
    (time, scheduling sequence) (HACKING.md, "Engine guarantees").

    An in-flight event holds no heap record of its own: its slab slot is
    four ints (a head packing kind, src, dst and route, then [sent_at],
    the message id and the send's Lamport stamp) plus its payload; a
    timer's payload is its handle block, allocated once per {!set_timer}
    or {!every}.  A
    route is one (component, tag), interned on its first send with its
    trace labels, handler column and {!Stats} cell.  The engine records
    its messages and spans through {!Trace}'s scalar writers and hands
    each message's send stamp back to the trace at delivery or drop, so
    a message costs only its link fate's [Deliver_at] box (2 minor words).

    Conventions:
    - a {b self-send} ([src = dst]) is local: it is delivered at the current
      instant, bypasses the link model, and is {i not} counted as a message
      (the paper's message counts only cover inter-process messages);
    - a crashed process neither executes handlers and timers nor sends; its
      in-flight messages may still be delivered (standard crash model);
    - messages addressed to a process that has crashed by delivery time are
      dropped. *)

type t

val create : ?seed:int -> n:int -> link:Link.t -> unit -> t
(** [1 <= n <= Trace.max_pid + 1] processes, all initially alive, clock
    at 0.

    Storage: if the last engine created on this domain has since been
    collected, the new engine takes over its event slab's int block, free
    stack and timer wheel ({!Exec.Spare}), and its trace takes over that
    engine's full-size trace chunks ({!Trace.create}).  A sweep that
    builds one engine after another then stops paying for fresh memory
    as each slab grows.  Only storage that holds no OCaml value is taken
    over: the payload column, whose pending timers and actions reach
    their engine through their closures, is always the engine's own.  An
    engine whose predecessor is still reachable starts from empty
    storage.  What an engine computes and records is the same either
    way. *)

val n : t -> int
val now : t -> Sim_time.t

val trace : t -> Trace.t
val stats : t -> Stats.t

val obs : t -> Obs.Registry.t
(** The engine's metric registry.  The engine itself feeds
    [engine.delivery_latency] (per non-local delivery),
    [engine.span_duration] (on {!end_span}), and, through {!Stats}, the
    eight lifecycle metrics {!Stats.lifecycle} reads back: the
    [engine.queue_depth_high_water] / [engine.timer_residency_high_water]
    gauges and the counters [engine.events_executed_total],
    [engine.timer_set_total], [engine.timer_fired_total],
    [engine.timer_cancelled_total], [engine.timer_orphaned_total] and
    [engine.timer_reclaimed_total].  Two counters, set once by {!create},
    report storage taken over from a collected predecessor:
    [engine.recycled_slots] (event-slab slots) and [trace.recycled_chunks]
    (full-size trace chunks).  They depend on when the GC ran, unlike
    every other metric here, which is a function of the run.  Components
    register their own metrics here — with literal names (check rule
    R6). *)

val link_description : t -> string

(** {1 Process status} *)

val is_alive : t -> Pid.t -> bool
(** Has not crashed yet (at the current instant). *)

val alive_processes : t -> Pid.t list

val schedule_crash : t -> Pid.t -> at:Sim_time.t -> unit
(** The process stops executing at instant [at] (before any of its events at
    that instant that were scheduled after the crash was enqueued). *)

(** {1 Component plumbing} *)

val register : t -> component:string -> Pid.t -> (src:Pid.t -> Payload.t -> unit) -> unit
(** Install the message handler of [component] at one process.  At most one
    handler per (component, process); re-registration raises
    [Invalid_argument]. *)

val send :
  t -> component:string -> tag:string -> src:Pid.t -> dst:Pid.t -> Payload.t -> unit
(** Send a message.  No-op if [src] has crashed.  The first send of a
    (component, tag) interns its route; pass the same physical strings
    every time and later sends find it without hashing.
    @raise Invalid_argument past [2{^19}] distinct (component, tag)
    pairs. *)

val send_to_all_others :
  t -> component:string -> tag:string -> src:Pid.t -> Payload.t -> unit
(** Send to every process except [src] (n-1 messages). *)

val send_to_all : t -> component:string -> tag:string -> src:Pid.t -> Payload.t -> unit
(** Send to every process including [src] (the self-copy is local). *)

(** {1 Timers} *)

type timer
(** A timer's handle: the block its event-slab slot carries as payload.
    The slot is reclaimed — and the handle becomes permanently stale,
    since no slot holds its block any more — the instant the timer's
    event is popped, whether it fired, was cancelled, or its owner had
    crashed.  Timer residency is therefore bounded by the number of
    in-flight timer events, never by the cumulative number of
    cancellations. *)

val set_timer : t -> Pid.t -> delay:int -> (unit -> unit) -> timer
(** Run the callback [delay] ticks from now, unless cancelled or the process
    crashes first.  [delay >= 0]. *)

val cancel_timer : t -> timer -> unit
(** Prevent the timer from firing.  Idempotent; a stale handle (the timer
    already fired, was already cancelled, or its slot was reused) is a
    no-op, so cancelling late is always safe. *)

val every : t -> Pid.t -> ?phase:int -> period:int -> (unit -> unit) -> unit -> unit
(** [every t p ~phase ~period f] runs [f] at [now + phase], then every
    [period] ticks, while [p] is alive.  With [~phase:0] the first firing
    happens at the current instant (after the currently executing event),
    then exactly once per period.  Returns a stop function; stopping
    cancels the armed occurrence.  [phase] defaults to [period].

    Re-arming is the engine's hot path: each occurrence puts the timer's
    one block into a free slab slot and the wheel by mutating int arrays
    and that block — no closure, heap node or handle record is allocated
    per occurrence (the e20 bench asserts this via [Gc.minor_words]
    deltas). *)

val timer_residency : t -> int
(** Slab slots currently held by timers (armed timers plus cancelled
    timers whose deadline has not yet passed).  O(1). *)

val timer_armed : t -> int
(** Timers currently armed (set, not yet fired/cancelled/orphaned): the
    pending leg of the lifecycle conservation law
    [timers_set = timers_fired + timers_cancelled + timers_orphaned +
    timer_armed], which holds at every instant. *)

(** {1 Harness hooks} *)

val at : t -> Sim_time.t -> (unit -> unit) -> unit
(** Schedule a harness action at an absolute instant; it runs regardless of
    crashes (it belongs to the experimenter, not to any process). *)

val note : t -> Pid.t -> tag:string -> string -> unit
(** Append a note event to the trace. *)

(** {1 Spans}

    A span brackets a protocol phase — a consensus round, a leadership
    epoch, a suspicion episode — between a [Span_begin] and a [Span_end]
    trace event sharing an engine-allocated span id.  Exports render spans
    as slices on the owning process's track; closing a span also feeds
    its duration to the [engine.span_duration] histogram.

    Two interfaces write the same events.  {!open_span}/{!close_span}
    keep a span as two ints the caller stores (its id and opening
    instant), for callers that hold many spans at once — a detector
    handle holds one per suspicion.  {!begin_span}/{!end_span} wrap that
    pair in a record that remembers its owner, name and whether it was
    closed. *)

val open_span : t -> Pid.t -> component:string -> name:string -> int
(** Open a span at [p] now: record its [Span_begin] and return its id.
    The caller keeps the id and {!now} (the opening instant) for
    {!close_span}.  [name] must be a string literal (check rule R6). *)

val close_span :
  t -> Pid.t -> component:string -> name:string -> span:int -> opened_at:Sim_time.t -> unit
(** Close span [span], opened by {!open_span} at [p] with the same
    [component] and [name] at instant [opened_at]: record its [Span_end]
    now and observe [now - opened_at] in [engine.span_duration].  Not
    idempotent: every call records another [Span_end], so the caller owns
    the single close of each span.  [name] must be a string literal
    (check rule R6). *)

type span

val begin_span : t -> Pid.t -> component:string -> name:string -> span
(** Open a span at [p] now.  [name] must be a string literal (check rule
    R6): span names are a static vocabulary, never data. *)

val end_span : t -> span -> unit
(** Close the span at the current instant.  Idempotent — closing twice is
    a no-op, so protocols may close eagerly on decide {i and} defensively
    on round exit.  Spans left open at the end of a run (e.g. a suspicion
    of a genuinely crashed process) simply never get a [Span_end]. *)

val record_fd_view :
  t -> component:string -> Pid.t -> suspected:Pid.Set.t -> trusted:Pid.t option -> unit
(** Record a failure-detector output change in the trace. *)

(** {1 Execution} *)

val step : t -> bool
(** Process the next event; [false] if the queue is empty.  Pops the
    wheel and dispatches on the slot's kind; a timer step allocates
    nothing on the minor heap. *)

val run_until : t -> Sim_time.t -> unit
(** Process every event up to and including the given instant, then set the
    clock to it.  Raises [Invalid_argument] on a horizon in the past. *)

val pending_events : t -> int
(** Pending events, timers included (armed or cancelled): the queue
    depth. *)

val slab_capacity : t -> int
(** Event-slab slots ever handed out since creation or the last
    {!compact} — the slab's high-water mark, bounded by the peak number
    of simultaneously pending events (timers included), not by run
    length.  The payload column is at least this long and grows by
    doubling from empty.  The int block, the free stack and the wheel's
    per-cell columns are at least as long as the payload column: they
    start empty, or as long as a collected predecessor left them (see
    {!create}), and double with the payload column once it outgrows
    them. *)

val compact : t -> unit
(** Return backing-store slack to the GC after a scheduling burst; never
    drops events or timers.  Shrinks the event slab, its free stack and
    the wheel's per-cell columns to one past the highest occupied slot,
    and {!slab_capacity} with them, including any slack taken over from a
    predecessor, so the engine's successor inherits the shrunk storage.  A timer handle into the dropped
    region stays stale: its slot never holds its block again.
    Long-lived engines (soaks, servers) can call this between load
    phases. *)
