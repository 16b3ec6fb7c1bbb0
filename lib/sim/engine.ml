type event_kind =
  | Deliver of Payload.envelope
  | Crash_now of Pid.t
  | Harness of (unit -> unit)

(* Timer registry: a generation/slot table replacing the old
   [(int, unit) Hashtbl.t] of cancelled ids, which grew for the lifetime of
   the run (entries were never purged, so a soak run leaked one table entry
   per cancellation forever).

   Every armed timer owns one slot until the instant its deadline pops —
   fired, cancelled in the meantime, or orphaned by a crash, the pop
   reclaims the slot and bumps its generation.  A timer handle is
   (slot, generation); a stale handle (cancel after the event popped, or
   after the slot was reused) compares unequal on generation and is a no-op.
   Residency is therefore bounded by the number of in-flight timer events,
   not by the cumulative number of cancellations.

   The registry is a structure of arrays (gen / state / owner pid /
   callback / periodic control per slot) and pending slots are ordered by
   a {!Timer_wheel}: a timer occurrence is just a dense int riding
   intrusive int arrays, so the steady-state heartbeat path — pop, fire,
   re-arm — performs no minor-heap allocation at all.

   Aperiodic events (messages, crashes, harness callbacks) ride a second
   wheel the same way: each one occupies a slot of the event slab (an
   [event_kind] column plus a LIFO free stack) from schedule to pop.
   [step] merges the two wheels by (time, scheduling sequence), both
   drawing from the engine's single sequence counter, which reproduces
   exactly the order of one combined queue (HACKING.md, "Engine
   guarantees"). *)
type timer_state = Free | Armed | Cancelled

(* Re-arm control block for [every], shared by every occurrence of one
   periodic timer: the only allocation a periodic timer ever performs
   after setup is none — re-arming mutates this block and the registry
   columns in place.  [p_period = 0] marks the shared [no_ctl] sentinel
   used by one-shot timers ([every] validates period > 0). *)
type periodic = {
  mutable p_slot : int;
  mutable p_gen : int;
  p_period : Sim_time.t;
  mutable p_stopped : bool;
}

let no_ctl = { p_slot = -1; p_gen = -1; p_period = 0; p_stopped = false }
let no_callback () = ()

(* The content of a free event-slab slot: a popped event is dropped from
   the slab at once, so its envelope or closure is GC-reclaimable. *)
let no_event = Harness no_callback

type handler = src:Pid.t -> Payload.t -> unit

type t = {
  n : int;
  mutable now : Sim_time.t;
  timer_wheel : Timer_wheel.t;
  event_wheel : Timer_wheel.t;
  link : Link.t;
  rng : Rng.t;
  alive : bool array;
  handlers : (string, handler option array) Hashtbl.t;
  handler_slots : handler option array Phys_cache.t;  (* [handlers], by component *)
  trace : Trace.t;
  stats : Stats.t;
  obs : Obs.Registry.t;
  m_delivery_latency : Obs.Registry.histogram;
  m_span_duration : Obs.Registry.histogram;
  mutable next_seq : int;  (* scheduling sequence, shared by both wheels *)
  mutable next_msg : int;  (* message ids handed to Send/Deliver/Drop trace events *)
  mutable next_span : int;  (* span ids handed to Span_begin/Span_end *)
  mutable timer_gens : int array;
  mutable timer_states : timer_state array;
  mutable timer_pids : int array;
  mutable timer_cbs : (unit -> unit) array;
  mutable timer_ctl : periodic array;
  mutable timer_free : int array;  (* LIFO stack of reclaimed slots *)
  mutable timer_free_len : int;
  mutable timer_next_slot : int;  (* slots ever handed out; table high-water *)
  mutable timer_live : int;  (* Armed + Cancelled slots awaiting reclaim *)
  mutable timer_armed : int;  (* Armed slots only: the pending leg of the
                                 conservation law set = fired + cancelled +
                                 orphaned + armed *)
  mutable timer_gen_floor : int;  (* generation for slots (re)created after
                                     [compact] dropped table space: at least
                                     one past every generation the dropped
                                     slots ever handed out, so pre-compact
                                     handles can never match again *)
  mutable ev_kinds : event_kind array;  (* the event slab; [no_event] when free *)
  mutable ev_free : int array;  (* LIFO stack of free slab slots, as long as [ev_kinds] *)
  mutable ev_free_len : int;
  mutable ev_next_slot : int;  (* slab slots ever handed out; slab high-water *)
}

(* Sim-tick buckets shared by the engine's latency-shaped histograms: fine
   resolution around typical post-GST delays, coarse tail for pre-GST
   chaos and long protocol phases. *)
let tick_buckets = [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 4096 ]

(* Every component's handler column, created empty on first use so
   [register] and [dispatch] share one path through [handler_slots]. *)
let handler_column handlers n component _ _ =
  match Hashtbl.find_opt handlers component with
  | Some slots -> slots
  | None ->
    let slots = Array.make n None in
    Hashtbl.add handlers component slots;
    slots

let create ?(seed = 0) ~n ~link () =
  if n < 1 then invalid_arg "Engine.create: n must be >= 1";
  let obs = Obs.Registry.create () in
  let handlers = Hashtbl.create 8 in
  {
    n;
    now = Sim_time.zero;
    timer_wheel = Timer_wheel.create ();
    event_wheel = Timer_wheel.create ();
    link;
    rng = Rng.create ~seed;
    alive = Array.make n true;
    handlers;
    handler_slots = Phys_cache.create ~dummy:[||] (handler_column handlers n);
    trace = Trace.create ();
    stats = Stats.create obs;
    obs;
    m_delivery_latency =
      Obs.Registry.histogram obs ~name:"engine.delivery_latency" ~buckets:tick_buckets;
    m_span_duration = Obs.Registry.histogram obs ~name:"engine.span_duration" ~buckets:tick_buckets;
    next_seq = 0;
    next_msg = 0;
    next_span = 0;
    timer_gens = [||];
    timer_states = [||];
    timer_pids = [||];
    timer_cbs = [||];
    timer_ctl = [||];
    timer_free = [||];
    timer_free_len = 0;
    timer_next_slot = 0;
    timer_live = 0;
    timer_armed = 0;
    timer_gen_floor = 0;
    ev_kinds = [||];
    ev_free = [||];
    ev_free_len = 0;
    ev_next_slot = 0;
  }

let n t = t.n
let now t = t.now

let trace t = t.trace
let stats t = t.stats
let obs t = t.obs
let link_description t = t.link.Link.describe

let check_pid t p =
  if not (Pid.is_valid ~n:t.n p) then invalid_arg "Engine: invalid process id"

let is_alive t p =
  check_pid t p;
  t.alive.(p)

let alive_processes t = List.filter (fun p -> t.alive.(p)) (Pid.all ~n:t.n)

let alloc_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

(* Depth of the logical event queue: pending events plus pending timer
   cells, the length one combined queue would have at every instant. *)
let note_event_depth t =
  Stats.note_queue_depth t.stats ~depth:(Timer_wheel.cardinal t.event_wheel + t.timer_live)

(* The free stack is as long as the slab, so pushing a released slot never
   grows it. *)
let[@check.allow bulk
     "amortized slab growth: the kind column and free stack double together, \
      so per-event cost is O(1) and a steady-state run never takes this branch"]
    grow_event_slab t =
  let capacity = Array.length t.ev_kinds in
  let capacity' = Stdlib.max 16 (2 * capacity) in
  let kinds' = Array.make capacity' no_event in
  let free' = Array.make capacity' 0 in
  Array.blit t.ev_kinds 0 kinds' 0 capacity;
  Array.blit t.ev_free 0 free' 0 t.ev_free_len;
  t.ev_kinds <- kinds';
  t.ev_free <- free';
  Timer_wheel.ensure_capacity t.event_wheel capacity'

let[@alloc.zero] take_event_slot t kind =
  let slot =
    if t.ev_free_len > 0 then begin
      t.ev_free_len <- t.ev_free_len - 1;
      t.ev_free.(t.ev_free_len)
    end
    else begin
      if t.ev_next_slot = Array.length t.ev_kinds then grow_event_slab t;
      let slot = t.ev_next_slot in
      t.ev_next_slot <- slot + 1;
      slot
    end
  in
  t.ev_kinds.(slot) <- kind;
  slot

let[@alloc.zero] release_event_slot t slot =
  let kind = t.ev_kinds.(slot) in
  t.ev_kinds.(slot) <- no_event;
  t.ev_free.(t.ev_free_len) <- slot;
  t.ev_free_len <- t.ev_free_len + 1;
  kind

(* Every enqueue goes through here so the queue high-water mark in [Stats]
   is exact, not sampled. *)
let schedule_event t ~at kind =
  let slot = take_event_slot t kind in
  Timer_wheel.add t.event_wheel ~cell:slot ~deadline:at ~seq:(alloc_seq t);
  note_event_depth t

let schedule_crash t p ~at =
  check_pid t p;
  if at < t.now then invalid_arg "Engine.schedule_crash: instant in the past";
  schedule_event t ~at (Crash_now p)

let register t ~component p handler =
  check_pid t p;
  let slots = Phys_cache.find t.handler_slots component "" "" in
  match slots.(p) with
  | Some _ ->
    invalid_arg
      (Printf.sprintf "Engine.register: duplicate handler for component %S at %s" component
         (Pid.to_string p))
  | None -> slots.(p) <- Some handler

let send t ~component ~tag ~src ~dst payload =
  check_pid t src;
  check_pid t dst;
  if t.alive.(src) then begin
    if Pid.equal src dst then
      (* Local delivery: immediate, not a network message, not counted,
         not traced (hence no message id). *)
      schedule_event t ~at:t.now
        (Deliver { Payload.src; dst; component; tag; payload; sent_at = t.now; msg = -1 })
    else begin
      let msg = t.next_msg in
      t.next_msg <- msg + 1;
      let envelope = { Payload.src; dst; component; tag; payload; sent_at = t.now; msg } in
      Trace.record t.trace (Send { at = t.now; src; dst; msg; component; tag });
      Stats.on_send t.stats ~component ~tag;
      match t.link.Link.fate ~rng:t.rng ~now:t.now ~src ~dst with
      | Link.Drop ->
        Trace.record t.trace
          (Drop { at = t.now; src; dst; msg; component; tag; reason = "lossy" });
        Stats.on_drop t.stats ~component ~tag
      | Link.Deliver_at at ->
        assert (at >= t.now);
        schedule_event t ~at (Deliver envelope)
    end
  end

let send_to_all_others t ~component ~tag ~src payload =
  for dst = 0 to t.n - 1 do
    if not (Pid.equal dst src) then send t ~component ~tag ~src ~dst payload
  done

let send_to_all t ~component ~tag ~src payload =
  for dst = 0 to t.n - 1 do
    send t ~component ~tag ~src ~dst payload
  done

type timer = { slot : int; gen : int }

let timer_residency t = t.timer_live
let timer_table_capacity t = t.timer_next_slot
let timer_armed t = t.timer_armed

let[@check.allow bulk
     "amortized free-list growth: doubles capacity, so per-event cost is O(1) \
      and a steady-state run never takes this branch"] free_push t slot =
  let cap = Array.length t.timer_free in
  if t.timer_free_len = cap then begin
    let free' = Array.make (Stdlib.max 16 (2 * cap)) 0 in
    Array.blit t.timer_free 0 free' 0 cap;
    t.timer_free <- free'
  end;
  t.timer_free.(t.timer_free_len) <- slot;
  t.timer_free_len <- t.timer_free_len + 1

let[@check.allow bulk
     "amortized registry growth: the five parallel columns double together, so \
      per-event cost is O(1) and a steady-state run never takes this branch"]
    alloc_timer_slot t =
  if t.timer_free_len > 0 then begin
    (* LIFO, like the old cons-list free list: the slot-reuse sequence — and
       with it the capacity column of e18 — is unchanged. *)
    t.timer_free_len <- t.timer_free_len - 1;
    t.timer_free.(t.timer_free_len)
  end
  else begin
    let capacity = Array.length t.timer_gens in
    if t.timer_next_slot = capacity then begin
      let capacity' = Stdlib.max 16 (2 * capacity) in
      let gens' = Array.make capacity' t.timer_gen_floor in
      let states' = Array.make capacity' Free in
      let pids' = Array.make capacity' 0 in
      let cbs' = Array.make capacity' no_callback in
      let ctl' = Array.make capacity' no_ctl in
      Array.blit t.timer_gens 0 gens' 0 capacity;
      Array.blit t.timer_states 0 states' 0 capacity;
      Array.blit t.timer_pids 0 pids' 0 capacity;
      Array.blit t.timer_cbs 0 cbs' 0 capacity;
      Array.blit t.timer_ctl 0 ctl' 0 capacity;
      t.timer_gens <- gens';
      t.timer_states <- states';
      t.timer_pids <- pids';
      t.timer_cbs <- cbs';
      t.timer_ctl <- ctl';
      Timer_wheel.ensure_capacity t.timer_wheel capacity'
    end;
    let slot = t.timer_next_slot in
    t.timer_next_slot <- slot + 1;
    slot
  end

let reclaim_timer_slot t slot =
  t.timer_gens.(slot) <- t.timer_gens.(slot) + 1;
  t.timer_states.(slot) <- Free;
  (* Release the callback and control references: the registry must not
     keep a fired timer's closure alive until the slot happens to be
     reused (the old heap-backed scheme dropped them at event pop). *)
  t.timer_cbs.(slot) <- no_callback;
  t.timer_ctl.(slot) <- no_ctl;
  free_push t slot;
  t.timer_live <- t.timer_live - 1;
  Stats.on_timer_reclaimed t.stats

(* The arm path shared by [set_timer] and the periodic re-arm.  Returns the
   slot index (not a handle record) so the re-arm fast path stays
   allocation-free; the accounting sequence — residency note, set
   counter, depth note — is the exact sequence the old heap-backed
   [set_timer] performed. *)
let[@alloc.zero] arm_timer t p ~delay callback ctl =
  if delay < 0 then invalid_arg "Engine.set_timer: negative delay";
  let slot = alloc_timer_slot t in
  t.timer_states.(slot) <- Armed;
  t.timer_pids.(slot) <- p;
  t.timer_cbs.(slot) <- callback;
  t.timer_ctl.(slot) <- ctl;
  t.timer_live <- t.timer_live + 1;
  t.timer_armed <- t.timer_armed + 1;
  Stats.note_timer_residency t.stats ~residency:t.timer_live;
  Stats.on_timer_set t.stats;
  Timer_wheel.add t.timer_wheel ~cell:slot ~deadline:(t.now + delay) ~seq:(alloc_seq t);
  note_event_depth t;
  slot

let set_timer t p ~delay callback =
  check_pid t p;
  let slot = arm_timer t p ~delay callback no_ctl in
  { slot; gen = t.timer_gens.(slot) }

let cancel_slot t slot gen =
  (* Stale handles (already fired, already cancelled, slot since reused)
     fail the generation or state check and are no-ops. *)
  if slot >= 0
     && slot < Array.length t.timer_gens
     && t.timer_gens.(slot) = gen
     && t.timer_states.(slot) = Armed
  then begin
    (* The cell stays parked in the wheel until its deadline pops, which
       is when the slot is reclaimed. *)
    t.timer_states.(slot) <- Cancelled;
    t.timer_armed <- t.timer_armed - 1;
    Stats.on_timer_cancelled t.stats
  end

let cancel_timer t { slot; gen } = cancel_slot t slot gen

let every t p ?phase ~period callback =
  check_pid t p;
  if period <= 0 then invalid_arg "Engine.every: period must be positive";
  let phase = match phase with Some d -> d | None -> period in
  let ctl = { p_slot = 0; p_gen = 0; p_period = period; p_stopped = false } in
  let slot = arm_timer t p ~delay:phase callback ctl in
  ctl.p_slot <- slot;
  ctl.p_gen <- t.timer_gens.(slot);
  fun () ->
    if not ctl.p_stopped then begin
      ctl.p_stopped <- true;
      (* Cancel the armed occurrence so its registry slot is accounted as
         cancelled rather than silently swallowed by the stop flag. *)
      cancel_slot t ctl.p_slot ctl.p_gen
    end

let at t instant callback =
  if instant < t.now then invalid_arg "Engine.at: instant in the past";
  schedule_event t ~at:instant (Harness callback)

let note t p ~tag detail = Trace.record t.trace (Note { at = t.now; pid = p; tag; detail })

let open_span t p ~component ~name =
  check_pid t p;
  let span = t.next_span in
  t.next_span <- span + 1;
  Trace.record t.trace (Span_begin { at = t.now; pid = p; component; span; name });
  span

let close_span t p ~component ~name ~span ~opened_at =
  Trace.record t.trace (Span_end { at = t.now; pid = p; component; span; name });
  Obs.Registry.observe t.m_span_duration (t.now - opened_at)

type span = {
  span_id : int;
  span_pid : Pid.t;
  span_component : string;
  span_name : string;
  opened_at : Sim_time.t;
  mutable closed : bool;
}

let begin_span t p ~component ~name =
  let span_id = open_span t p ~component ~name in
  { span_id; span_pid = p; span_component = component; span_name = name; opened_at = t.now;
    closed = false }

let end_span t s =
  if not s.closed then begin
    s.closed <- true;
    close_span t s.span_pid ~component:s.span_component ~name:s.span_name ~span:s.span_id
      ~opened_at:s.opened_at
  end

let record_fd_view t ~component p ~suspected ~trusted =
  Trace.record t.trace (Fd_view { at = t.now; pid = p; component; suspected; trusted })

let dispatch t (envelope : Payload.envelope) =
  let { Payload.src; dst; component; tag; payload; sent_at; msg } = envelope in
  if not t.alive.(dst) then begin
    if not (Pid.equal src dst) then begin
      Trace.record t.trace
        (Drop { at = t.now; src; dst; msg; component; tag; reason = "destination crashed" });
      Stats.on_drop t.stats ~component ~tag
    end
  end
  else begin
    match (Phys_cache.find t.handler_slots component "" "").(dst) with
    | None ->
      failwith
        (Printf.sprintf "Engine: message for component %S at %s but no handler registered"
           component (Pid.to_string dst))
    | Some h ->
      if not (Pid.equal src dst) then begin
        Trace.record t.trace (Deliver { at = t.now; src; dst; msg; component; tag });
        Stats.on_deliver t.stats ~component ~tag;
        Obs.Registry.observe t.m_delivery_latency (t.now - sent_at)
      end;
      h ~src payload
  end

(* A timer cell popped at its deadline.  The reclaim-before-dispatch order
   matches the old heap-backed path: the callback may set new timers (the
   slot can be reused immediately — the bumped generation keeps old
   handles stale) and may read residency counters, which must not include
   this already-popped timer.

   Periodic semantics replicate the old closure chain exactly, including
   the stop-from-inside-the-callback corner: the stop flag is tested
   before the callback runs, so a stop issued by the callback itself still
   re-arms one final occurrence, which then fires as a no-op (counted
   fired, callback skipped, chain ends). *)
let[@alloc.zero] execute_timer t cell =
  let state = t.timer_states.(cell) in
  let pid = t.timer_pids.(cell) in
  let cb = t.timer_cbs.(cell) in
  let ctl = t.timer_ctl.(cell) in
  reclaim_timer_slot t cell;
  match state with
  | Armed ->
    t.timer_armed <- t.timer_armed - 1;
    if t.alive.(pid) then begin
      Stats.on_timer_fired t.stats;
      if Sim_time.equal ctl.p_period Sim_time.zero then
        (cb ()
        [@check.allow extern
            "the callback belongs to the registering component: its allocation is \
             its own (the e20 dynamic gate charges it to the run), not the timer \
             plumbing's"])
      else if not ctl.p_stopped then begin
        (cb ()
        [@check.allow extern
            "the callback belongs to the registering component: its allocation is \
             its own (the e20 dynamic gate charges it to the run), not the timer \
             plumbing's"]);
        (* Re-arm after the callback, so the callback's own sends and
           timers take their scheduling sequence numbers (and registry
           slots) first — the order the old closure chain produced. *)
        let slot = arm_timer t pid ~delay:ctl.p_period cb ctl in
        ctl.p_slot <- slot;
        ctl.p_gen <- t.timer_gens.(slot)
      end
    end
    else begin
      (* Orphaned: the owner crashed between arm and deadline. *)
      Stats.on_timer_orphaned t.stats
    end
  | Cancelled -> ()
  | Free -> assert false

let execute t kind =
  match kind with
  | Deliver envelope -> dispatch t envelope
  | Crash_now p ->
    if t.alive.(p) then begin
      t.alive.(p) <- false;
      Trace.record t.trace (Crash { at = t.now; pid = p })
    end
  | Harness f -> f ()

(* Merge the timer wheel and the event wheel by (time, scheduling
   sequence).  Sequence numbers are globally unique (one counter feeds
   both wheels), so the [<=] is really a [<] — the "timer wheel wins
   ties" clause is unreachable, but encodes the documented tie-break.
   Neither branch allocates in the engine; the event branch's dispatch
   belongs to the receiving component. *)
let[@alloc.zero] step t =
  let have_timer = not (Timer_wheel.is_empty t.timer_wheel) in
  let have_event = not (Timer_wheel.is_empty t.event_wheel) in
  if not (have_timer || have_event) then false
  else begin
    let timer_first =
      have_timer
      && ((not have_event)
         ||
         let wt = Timer_wheel.next_at t.timer_wheel in
         let et = Timer_wheel.next_at t.event_wheel in
         if wt < et then true
         else if et < wt then false
         else Timer_wheel.next_seq t.timer_wheel <= Timer_wheel.next_seq t.event_wheel)
    in
    if timer_first then begin
      let at = Timer_wheel.next_at t.timer_wheel in
      let cell = Timer_wheel.pop t.timer_wheel in
      assert (at >= t.now);
      t.now <- at;
      Stats.on_event_executed t.stats;
      execute_timer t cell
    end
    else begin
      let at = Timer_wheel.next_at t.event_wheel in
      let kind = release_event_slot t (Timer_wheel.pop t.event_wheel) in
      assert (at >= t.now);
      t.now <- at;
      Stats.on_event_executed t.stats;
      (execute t kind
      [@check.allow extern
          "aperiodic dispatch leg: trace records, handler lookup and harness \
           callbacks may allocate — the zero-alloc contract covers the wheel \
           and slab plumbing, and e20 measures both"])
    end;
    true
  end

(* Earliest pending instant across both wheels; [max_int] when idle.
   Option-free so the run loop does not allocate per event. *)
let next_instant t =
  let wt = if Timer_wheel.is_empty t.timer_wheel then max_int else Timer_wheel.next_at t.timer_wheel in
  let et = if Timer_wheel.is_empty t.event_wheel then max_int else Timer_wheel.next_at t.event_wheel in
  if wt < et then wt else et

let rec run_loop t horizon =
  if next_instant t <= horizon then begin
    ignore (step t : bool);
    run_loop t horizon
  end

let run_until t horizon =
  if horizon < t.now then invalid_arg "Engine.run_until: horizon in the past";
  run_loop t horizon;
  t.now <- horizon

let pending_events t = Timer_wheel.cardinal t.event_wheel + t.timer_live

let event_slab_capacity t = Array.length t.ev_kinds

(* Drop the event slab to one past its highest occupied slot.  Pending
   events never sit in a free slot, so nothing above the cut is in the
   event wheel either. *)
let compact_events t =
  let cap = ref 0 in
  for s = 0 to t.ev_next_slot - 1 do
    if t.ev_kinds.(s) != no_event then cap := s + 1
  done;
  let cap = !cap in
  if cap < Array.length t.ev_kinds then begin
    (* Keep the surviving free slots in LIFO order. *)
    let kept = ref 0 in
    for i = 0 to t.ev_free_len - 1 do
      let s = t.ev_free.(i) in
      if s < cap then begin
        t.ev_free.(!kept) <- s;
        incr kept
      end
    done;
    t.ev_free_len <- !kept;
    t.ev_kinds <- Array.sub t.ev_kinds 0 cap;
    t.ev_free <- Array.sub t.ev_free 0 cap;
    t.ev_next_slot <- cap;
    Timer_wheel.shrink_capacity t.event_wheel cap
  end

let compact t =
  compact_events t;
  (* Timer-table live high-water: one past the highest non-[Free] slot.
     Pending cells are never [Free], so everything above is absent from
     the wheel too and all five registry columns can drop together. *)
  let live_cap = ref 0 in
  for s = 0 to t.timer_next_slot - 1 do
    if t.timer_states.(s) <> Free then live_cap := s + 1
  done;
  let cap = !live_cap in
  if cap < t.timer_next_slot then begin
    (* Handles into the dropped region must stay stale if the table grows
       back: every dropped slot was reclaimed (it is [Free]), so its
       generation already exceeds all outstanding handles — future slots
       start at the maximum of those. *)
    let floor = ref t.timer_gen_floor in
    for s = cap to t.timer_next_slot - 1 do
      if t.timer_gens.(s) > !floor then floor := t.timer_gens.(s)
    done;
    t.timer_gen_floor <- !floor;
    t.timer_gens <- Array.sub t.timer_gens 0 cap;
    t.timer_states <- Array.sub t.timer_states 0 cap;
    t.timer_pids <- Array.sub t.timer_pids 0 cap;
    t.timer_cbs <- Array.sub t.timer_cbs 0 cap;
    t.timer_ctl <- Array.sub t.timer_ctl 0 cap;
    t.timer_next_slot <- cap;
    (* Keep only free-stack entries that survived, preserving LIFO order
       so the slot-reuse sequence is unaffected. *)
    let kept = ref 0 in
    for i = 0 to t.timer_free_len - 1 do
      let s = t.timer_free.(i) in
      if s < cap then begin
        t.timer_free.(!kept) <- s;
        incr kept
      end
    done;
    t.timer_free_len <- !kept;
    let free_target = Stdlib.max 16 t.timer_free_len in
    if Array.length t.timer_free > free_target then
      t.timer_free <- Array.sub t.timer_free 0 free_target;
    Timer_wheel.shrink_capacity t.timer_wheel cap
  end
