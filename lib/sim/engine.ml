(* One event queue.  Everything the engine schedules — a message
   delivery, a crash, an [Engine.at] action, a timer occurrence — holds
   one slot of the event slab from the moment it is scheduled until it
   pops, and one {!Timer_wheel} orders the pending slots by (instant,
   scheduling sequence).  [step] pops the wheel and dispatches on the
   slot's kind, so the engine runs the paper's single totally ordered
   sequence of steps (HACKING.md, "Engine guarantees").  Popped slots go
   back on a LIFO free stack: the slab's size follows the peak number of
   pending events, not the run's length, and the steady-state heartbeat
   path — pop, fire, re-arm — touches int arrays only and allocates
   nothing on the minor heap.

   A timer keeps its slot until its deadline pops, whether it fires, was
   cancelled in the meantime or lost its owner to a crash; the pop
   reclaims it.  So timer residency is bounded by the in-flight timers,
   never by the cumulative number of cancellations.  A timer's handle is
   its block on the slot's payload column (see [Timer] below): the
   handle is live exactly while some slot's payload is physically that
   block, so a late cancel — after the pop, or after the slot was reused
   by anything else — finds another payload there and is a no-op. *)
type handler = src:Pid.t -> Payload.t -> unit

(* The payloads of the engine's own slots, which nothing outside the
   engine can build or match.  An [Engine.at] action rides as [Harness].
   A timer rides as its [Timer] block, allocated once per [set_timer] or
   [every] and shared by every occurrence of a periodic timer: re-arming
   writes the same block into the next slot and mutates [slot], so a
   periodic timer allocates nothing after setup.  [period = 0] marks a
   one-shot timer ([every] validates period > 0). *)
type Payload.t +=
  | Harness of (unit -> unit)
  | Timer of {
      callback : unit -> unit;
      period : Sim_time.t;
      mutable slot : int;  (* the slab slot of the pending occurrence *)
      mutable stopped : bool;  (* [every]'s stop function has run *)
    }

(* Event-slab slot [s] is the four ints at [ev_ints.(4 s ..)] and the
   payload [ev_payloads.(s)]:

     +0  head     kind (2 bits) | a (21) | b (21) | route, low to high
     +1  sent_at
     +2  msg      the message id; -1 for a local self-send
     +3  lc       the send's Lamport stamp, handed back to the trace

   [a]/[b] are src/dst of a message, the victim of a crash, and a
   timer's owner and armed bit (cleared by a cancel).  Timers and
   [Engine.at] actions share kind [k_call] and differ by payload
   constructor.  A free slot has head 0 (no kind is 0) and payload
   [Blank], so a popped event's payload or callback is GC-reclaimable at
   once. *)
let ev_stride = 4
let k_deliver = 1
let k_crash = 2
let k_call = 3
let pid_bits = 21
let pid_mask = (1 lsl pid_bits) - 1
let armed_bit = 1 lsl (2 + pid_bits)
let route_shift = 2 + (2 * pid_bits)
let max_routes = 1 lsl (Sys.int_size - route_shift)
let head_kind h = h land 3
let head_a h = (h lsr 2) land pid_mask
let head_b h = (h lsr (2 + pid_bits)) land pid_mask
let head_route h = h lsr route_shift

(* A route is one interned (component, tag): everything [send] and
   [dispatch] need about it, looked up once.  [handlers] is the
   component's handler column, shared with [register]; the labels are the
   trace's (component, tag, reason) for sends and deliveries, lossy drops
   and drops at a crashed destination. *)
type route = {
  component : string;
  handlers : handler option array;
  cell : Stats.cell;
  label : Trace.label;
  lossy : Trace.label;
  crashed : Trace.label;
}

type routes = {
  mutable table : route array;  (* the first [len] are interned *)
  mutable len : int;
  by_key : (string * string, int) Hashtbl.t;
}

(* The engine's storage that holds no OCaml value: the slab's int block,
   its free stack and the wheel.  [ints] and [free] mirror the engine's
   [ev_ints] and [ev_free], which the hot path reads without this
   indirection; [grow_event_slab] and [compact] update both.  The
   payload column is not here: a pending [Timer] or [Harness] payload
   reaches its engine through its closure, so a store that held payloads
   could keep a dead engine reachable. *)
type store = { mutable ints : int array; mutable free : int array; wheel : Timer_wheel.t }

type t = {
  n : int;
  mutable now : Sim_time.t;
  wheel : Timer_wheel.t;  (* orders the pending slab slots; [store.wheel] *)
  link : Link.t;
  rng : Rng.t;
  alive : bool array;
  handlers : (string, handler option array) Hashtbl.t;  (* by component *)
  routes : routes;
  route_ids : int Phys_cache.t;  (* [routes], by (component, tag) *)
  trace : Trace.t;
  stats : Stats.t;
  obs : Obs.Registry.t;
  m_delivery_latency : Obs.Registry.histogram;
  m_span_duration : Obs.Registry.histogram;
  mutable next_seq : int;  (* scheduling sequence: the wheel's tie-break *)
  mutable next_msg : int;  (* message ids handed to Send/Deliver/Drop trace events *)
  mutable next_span : int;  (* span ids handed to Span_begin/Span_end *)
  mutable timer_live : int;  (* armed + cancelled timer slots awaiting their pop *)
  mutable timer_armed : int;  (* armed timer slots only: the pending leg of the
                                 conservation law set = fired + cancelled +
                                 orphaned + armed *)
  mutable ev_ints : int array;  (* the event slab: [ev_stride] ints per slot *)
  mutable ev_payloads : Payload.t array;  (* one per slot *)
  mutable ev_free : int array;  (* LIFO stack of free slab slots, one per slot *)
  mutable ev_free_len : int;
  mutable ev_next_slot : int;  (* slab slots ever handed out; slab high-water *)
  store : store;
}

(* The most recent engine's store on each domain, handed to the next
   [create] on that domain once that engine has been collected. *)
let spare : (t, store) Exec.Spare.t = Exec.Spare.create ()

(* Sim-tick buckets shared by the engine's latency-shaped histograms: fine
   resolution around typical post-GST delays, coarse tail for pre-GST
   chaos and long protocol phases. *)
let tick_buckets = [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 4096 ]

(* Every component's handler column, created empty on first use, by
   [register] or by the first route of the component. *)
let handler_column handlers n component =
  match Hashtbl.find_opt handlers component with
  | Some slots -> slots
  | None ->
    let slots = Array.make n None in
    Hashtbl.add handlers component slots;
    slots

let intern_route routes handlers n stats trace component tag _ =
  let key = (component, tag) in
  match Hashtbl.find_opt routes.by_key key with
  | Some id -> id
  | None ->
    if routes.len >= max_routes then
      invalid_arg (Printf.sprintf "Engine.send: more than %d (component, tag) pairs" max_routes);
    let route =
      {
        component;
        handlers = handler_column handlers n component;
        cell = Stats.cell stats ~component ~tag;
        label = Trace.label trace component tag "";
        lossy = Trace.label trace component tag "lossy";
        crashed = Trace.label trace component tag "destination crashed";
      }
    in
    if routes.len = Array.length routes.table then begin
      let table = Array.make (Stdlib.max 8 (2 * routes.len)) route in
      Array.blit routes.table 0 table 0 routes.len;
      routes.table <- table
    end;
    let id = routes.len in
    routes.table.(id) <- route;
    routes.len <- id + 1;
    Hashtbl.add routes.by_key key id;
    id

let create ?(seed = 0) ~n ~link () =
  if n < 1 then invalid_arg "Engine.create: n must be >= 1";
  if n > Trace.max_pid + 1 then
    invalid_arg (Printf.sprintf "Engine.create: n must be <= %d" (Trace.max_pid + 1));
  let obs = Obs.Registry.create () in
  let handlers = Hashtbl.create 8 in
  let trace = Trace.create () in
  let stats = Stats.create obs in
  let routes = { table = [||]; len = 0; by_key = Hashtbl.create 16 } in
  (* A collected predecessor's slots are all at or above [ev_next_slot]
     (0 here), so every word of them is written before it is read. *)
  let store =
    match Exec.Spare.take spare with
    | Some store ->
      Timer_wheel.reset store.wheel;
      store
    | None -> { ints = [||]; free = [||]; wheel = Timer_wheel.create () }
  in
  Obs.Registry.add
    (Obs.Registry.counter obs ~name:"engine.recycled_slots")
    (Array.length store.free);
  Obs.Registry.add
    (Obs.Registry.counter obs ~name:"trace.recycled_chunks")
    (Trace.recycled_chunks trace);
  let t =
    {
      n;
      now = Sim_time.zero;
      wheel = store.wheel;
      link;
      rng = Rng.create ~seed;
      alive = Array.make n true;
      handlers;
      routes;
      route_ids = Phys_cache.create ~dummy:(-1) (intern_route routes handlers n stats trace);
      trace;
      stats;
      obs;
      m_delivery_latency =
        Obs.Registry.histogram obs ~name:"engine.delivery_latency" ~buckets:tick_buckets;
      m_span_duration =
        Obs.Registry.histogram obs ~name:"engine.span_duration" ~buckets:tick_buckets;
      next_seq = 0;
      next_msg = 0;
      next_span = 0;
      timer_live = 0;
      timer_armed = 0;
      ev_ints = store.ints;
      ev_payloads = [||];
      ev_free = store.free;
      ev_free_len = 0;
      ev_next_slot = 0;
      store;
    }
  in
  Exec.Spare.keep spare t store;
  t

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

let note_event_depth t = Stats.note_queue_depth t.stats ~depth:(Timer_wheel.cardinal t.wheel)

(* The payload column's length is the slab's capacity.  The free stack is
   at least as long, so pushing a released slot never grows it.  The int
   block and free stack are longer when they came from a collected
   predecessor, and then only the payload column doubles. *)
let[@check.allow bulk
     "amortized slab growth: the payload column doubles, and the int block and \
      free stack with it while they are shorter, so per-event cost is O(1) and a \
      steady-state run never takes this branch"]
    grow_event_slab t =
  let capacity = Array.length t.ev_payloads in
  let capacity' = Stdlib.max 16 (2 * capacity) in
  let payloads' = Array.make capacity' Payload.Blank in
  Array.blit t.ev_payloads 0 payloads' 0 capacity;
  t.ev_payloads <- payloads';
  if Array.length t.ev_free < capacity' then begin
    let ints' = Array.make (ev_stride * capacity') 0 in
    let free' = Array.make capacity' 0 in
    Array.blit t.ev_ints 0 ints' 0 (ev_stride * capacity);
    Array.blit t.ev_free 0 free' 0 t.ev_free_len;
    t.ev_ints <- ints';
    t.ev_free <- free';
    t.store.ints <- ints';
    t.store.free <- free'
  end;
  Timer_wheel.ensure_capacity t.wheel capacity'

let[@alloc.zero] take_event_slot t =
  if t.ev_free_len > 0 then begin
    t.ev_free_len <- t.ev_free_len - 1;
    t.ev_free.(t.ev_free_len)
  end
  else begin
    if t.ev_next_slot = Array.length t.ev_payloads then grow_event_slab t;
    let slot = t.ev_next_slot in
    t.ev_next_slot <- slot + 1;
    slot
  end

let[@alloc.zero] release_event_slot t slot =
  t.ev_ints.(ev_stride * slot) <- 0;
  t.ev_payloads.(slot) <- Payload.Blank;
  t.ev_free.(t.ev_free_len) <- slot;
  t.ev_free_len <- t.ev_free_len + 1

(* Write one event into a fresh slab slot, enqueue it and return the
   slot.  Every enqueue goes through here so the queue high-water mark in
   [Stats] is exact, not sampled. *)
let[@alloc.zero] schedule_event t ~at ~head ~msg ~lc payload =
  let slot = take_event_slot t in
  let o = ev_stride * slot in
  t.ev_ints.(o) <- head;
  t.ev_ints.(o + 1) <- t.now;
  t.ev_ints.(o + 2) <- msg;
  t.ev_ints.(o + 3) <- lc;
  t.ev_payloads.(slot) <- payload;
  Timer_wheel.add t.wheel ~cell:slot ~deadline:at ~seq:(alloc_seq t);
  note_event_depth t;
  slot

let schedule_crash t p ~at =
  check_pid t p;
  if at < t.now then invalid_arg "Engine.schedule_crash: instant in the past";
  ignore (schedule_event t ~at ~head:(k_crash lor (p lsl 2)) ~msg:0 ~lc:0 Payload.Blank : int)

let register t ~component p handler =
  check_pid t p;
  let slots = handler_column t.handlers t.n component in
  match slots.(p) with
  | Some _ ->
    invalid_arg
      (Printf.sprintf "Engine.register: duplicate handler for component %S at %s" component
         (Pid.to_string p))
  | None -> slots.(p) <- Some handler

let message_head ~src ~dst route =
  k_deliver lor (src lsl 2) lor (dst lsl (2 + pid_bits)) lor (route lsl route_shift)

let send t ~component ~tag ~src ~dst payload =
  check_pid t src;
  check_pid t dst;
  if t.alive.(src) then begin
    let route = Phys_cache.find t.route_ids component tag "" in
    let head = message_head ~src ~dst route in
    if Pid.equal src dst then
      (* Local delivery: immediate, not a network message, not counted,
         not traced (hence no message id). *)
      ignore (schedule_event t ~at:t.now ~head ~msg:(-1) ~lc:0 payload : int)
    else begin
      let r = t.routes.table.(route) in
      let msg = t.next_msg in
      t.next_msg <- msg + 1;
      let lc = Trace.record_send t.trace ~at:t.now ~src ~dst ~msg r.label in
      Stats.count_send r.cell;
      match t.link.Link.fate ~rng:t.rng ~now:t.now ~src ~dst with
      | Link.Drop ->
        Trace.record_drop t.trace ~at:t.now ~src ~dst ~msg ~sent_lc:lc r.lossy;
        Stats.count_drop r.cell
      | Link.Deliver_at at ->
        assert (at >= t.now);
        ignore (schedule_event t ~at ~head ~msg ~lc payload : int)
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

type timer = Payload.t  (* always a [Timer] block *)

let timer_residency t = t.timer_live
let timer_armed t = t.timer_armed

(* Schedule the next occurrence of a [Timer] block: the arm path shared
   by [set_timer], [every] and the periodic re-arm.  Nothing here
   allocates, so the re-arm fast path stays allocation-free. *)
let[@alloc.zero] arm_timer t p ~delay block =
  if delay < 0 then invalid_arg "Engine.set_timer: negative delay";
  t.timer_live <- t.timer_live + 1;
  t.timer_armed <- t.timer_armed + 1;
  Stats.note_timer_residency t.stats ~residency:t.timer_live;
  Stats.on_timer_set t.stats;
  let head = k_call lor (p lsl 2) lor armed_bit in
  let slot = schedule_event t ~at:(t.now + delay) ~head ~msg:0 ~lc:0 block in
  match block with Timer r -> r.slot <- slot | _ -> assert false

let set_timer t p ~delay callback =
  check_pid t p;
  let block = Timer { callback; period = 0; slot = -1; stopped = false } in
  arm_timer t p ~delay block;
  block

(* A handle is live while its slot still holds the block itself, that
   is until its deadline pops.  After the pop it finds another payload
   there (or a slot [compact] dropped) and is a no-op; before it, a
   second cancel finds the armed bit already clear. *)
let cancel_timer t block =
  match block with
  | Timer { slot; _ } when slot < t.ev_next_slot && t.ev_payloads.(slot) == block ->
    let o = ev_stride * slot in
    let head = t.ev_ints.(o) in
    if head land armed_bit <> 0 then begin
      (* The slot stays in the wheel until its deadline pops, which is
         when it is reclaimed. *)
      t.ev_ints.(o) <- head land lnot armed_bit;
      t.timer_armed <- t.timer_armed - 1;
      Stats.on_timer_cancelled t.stats
    end
  | _ -> ()

let every t p ?phase ~period callback =
  check_pid t p;
  if period <= 0 then invalid_arg "Engine.every: period must be positive";
  let phase = match phase with Some d -> d | None -> period in
  let block = Timer { callback; period; slot = -1; stopped = false } in
  arm_timer t p ~delay:phase block;
  fun () ->
    match block with
    | Timer r when not r.stopped ->
      r.stopped <- true;
      (* Cancel the armed occurrence so it is accounted as cancelled
         rather than silently swallowed by the stop flag. *)
      cancel_timer t block
    | _ -> ()

let at t instant callback =
  if instant < t.now then invalid_arg "Engine.at: instant in the past";
  ignore (schedule_event t ~at:instant ~head:k_call ~msg:0 ~lc:0 (Harness callback) : int)

let note t p ~tag detail = Trace.record t.trace (Note { at = t.now; pid = p; tag; detail })

let open_span t p ~component ~name =
  check_pid t p;
  let span = t.next_span in
  t.next_span <- span + 1;
  Trace.record_span_begin t.trace ~at:t.now ~pid:p ~span (Trace.label t.trace component name "");
  span

let close_span t p ~component ~name ~span ~opened_at =
  Trace.record_span_end t.trace ~at:t.now ~pid:p ~span (Trace.label t.trace component name "");
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

(* Deliver the message in slab slot [slot].  The slot is released before
   the handler runs, so the handler's own sends may reuse it. *)
let dispatch t slot head =
  let o = ev_stride * slot in
  let sent_at = t.ev_ints.(o + 1) and msg = t.ev_ints.(o + 2) and lc = t.ev_ints.(o + 3) in
  let payload = t.ev_payloads.(slot) in
  release_event_slot t slot;
  let src = head_a head and dst = head_b head in
  let r = t.routes.table.(head_route head) in
  if not t.alive.(dst) then begin
    if not (Pid.equal src dst) then begin
      Trace.record_drop t.trace ~at:t.now ~src ~dst ~msg ~sent_lc:lc r.crashed;
      Stats.count_drop r.cell
    end
  end
  else begin
    match r.handlers.(dst) with
    | None ->
      failwith
        (Printf.sprintf "Engine: message for component %S at %s but no handler registered"
           r.component (Pid.to_string dst))
    | Some h ->
      if not (Pid.equal src dst) then begin
        Trace.record_deliver t.trace ~at:t.now ~src ~dst ~msg ~sent_lc:lc r.label;
        Stats.count_deliver r.cell;
        Obs.Registry.observe t.m_delivery_latency (t.now - sent_at)
      end;
      h ~src payload
  end

(* A timer slot popped at its deadline.  The slot is reclaimed before
   the callback runs: the callback may set new timers (the slot can be
   reused at once — the handle goes stale because the slot no longer
   holds its block) and may read the residency counters, which must not
   include this already-popped timer.

   A periodic timer tests its stop flag before the callback runs, so a
   stop issued by the callback itself still re-arms one final
   occurrence, which then fires as a no-op (counted fired, callback
   skipped, chain ends). *)
let[@alloc.zero] execute_timer t slot head block =
  release_event_slot t slot;
  t.timer_live <- t.timer_live - 1;
  Stats.on_timer_reclaimed t.stats;
  if head land armed_bit <> 0 then begin
    t.timer_armed <- t.timer_armed - 1;
    let owner = head_a head in
    if not t.alive.(owner) then
      (* Orphaned: the owner crashed between arm and deadline. *)
      Stats.on_timer_orphaned t.stats
    else begin
      Stats.on_timer_fired t.stats;
      match block with
      | Timer { callback; period; stopped; _ } ->
        if Sim_time.equal period Sim_time.zero then
          (callback ()
          [@check.allow extern
              "the callback belongs to the registering component: its allocation is \
               its own (the e20 dynamic gate charges it to the run), not the timer \
               plumbing's"])
        else if not stopped then begin
          (callback ()
          [@check.allow extern
              "the callback belongs to the registering component: its allocation is \
               its own (the e20 dynamic gate charges it to the run), not the timer \
               plumbing's"]);
          (* Re-arm after the callback, so the callback's own sends and
             timers take their scheduling sequence numbers first. *)
          arm_timer t owner ~delay:period block
        end
      | _ -> assert false
    end
  end

let execute t slot =
  let head = t.ev_ints.(ev_stride * slot) in
  let kind = head_kind head in
  if kind = k_deliver then dispatch t slot head
  else if kind = k_crash then begin
    release_event_slot t slot;
    let p = head_a head in
    if t.alive.(p) then begin
      t.alive.(p) <- false;
      Trace.record t.trace (Crash { at = t.now; pid = p })
    end
  end
  else
    match t.ev_payloads.(slot) with
    | Timer _ as block -> execute_timer t slot head block
    | Harness f ->
      release_event_slot t slot;
      f ()
    | _ -> assert false

let[@alloc.zero] step t =
  if Timer_wheel.is_empty t.wheel then false
  else begin
    let at = Timer_wheel.next_at t.wheel in
    let slot = Timer_wheel.pop t.wheel in
    assert (at >= t.now);
    t.now <- at;
    Stats.on_event_executed t.stats;
    (execute t slot
    [@check.allow extern
        "dispatch: trace records, handler lookup and harness callbacks may \
         allocate — the zero-alloc contract covers the wheel and slab plumbing \
         and the timer path (execute_timer is a root of its own), and e20 \
         measures both"]);
    true
  end

let rec run_loop t horizon =
  if (not (Timer_wheel.is_empty t.wheel)) && Timer_wheel.next_at t.wheel <= horizon then begin
    ignore (step t : bool);
    run_loop t horizon
  end

let run_until t horizon =
  if horizon < t.now then invalid_arg "Engine.run_until: horizon in the past";
  run_loop t horizon;
  t.now <- horizon

let pending_events t = Timer_wheel.cardinal t.wheel

let slab_capacity t = t.ev_next_slot

(* Drop the event slab to one past its highest occupied slot.  Pending
   events never sit in a free slot, so nothing above the cut is in the
   wheel either. *)
let compact t =
  let cap = ref 0 in
  for s = 0 to t.ev_next_slot - 1 do
    if t.ev_ints.(ev_stride * s) <> 0 then cap := s + 1
  done;
  let cap = !cap in
  if cap < Array.length t.ev_free then begin
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
    t.ev_ints <- Array.sub t.ev_ints 0 (ev_stride * cap);
    t.ev_payloads <- Array.sub t.ev_payloads 0 cap;
    t.ev_free <- Array.sub t.ev_free 0 cap;
    t.store.ints <- t.ev_ints;
    t.store.free <- t.ev_free;
    t.ev_next_slot <- cap;
    Timer_wheel.shrink_capacity t.wheel cap
  end
