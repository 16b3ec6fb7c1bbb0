type counts = { sent : int; delivered : int; dropped : int }

let zero = { sent = 0; delivered = 0; dropped = 0 }

let add a b =
  { sent = a.sent + b.sent; delivered = a.delivered + b.delivered; dropped = a.dropped + b.dropped }

(* Internal cells are mutable so the per-event hot path increments in place
   instead of allocating a fresh record (the old ref-of-immutable-record
   scheme allocated on every send/deliver/drop).  The public [counts] view
   stays immutable. *)
type cell = { mutable c_sent : int; mutable c_delivered : int; mutable c_dropped : int }

let read cell = { sent = cell.c_sent; delivered = cell.c_delivered; dropped = cell.c_dropped }

type lifecycle = {
  events_executed : int;
  timers_set : int;
  timers_fired : int;
  timers_cancelled : int;
  timers_orphaned : int;
  timers_reclaimed : int;
  queue_high_water : int;
  timer_residency_high_water : int;
}

(* Keyed by (component, tag); component-level views aggregate on the fly.
   Simulations have few distinct keys, so a Hashtbl is ample.  The engine
   looks each key's cell up once, when it interns the (component, tag)
   route, and counts through the cell from then on.  The lifecycle facts
   live only in the engine's registry; [t] holds their handles. *)
type t = {
  table : (string * string, cell) Hashtbl.t;
  events_executed : Obs.Registry.counter;
  timers_set : Obs.Registry.counter;
  timers_fired : Obs.Registry.counter;
  timers_cancelled : Obs.Registry.counter;
  timers_orphaned : Obs.Registry.counter;
  timers_reclaimed : Obs.Registry.counter;
  queue_high_water : Obs.Registry.gauge;
  timer_residency_high_water : Obs.Registry.gauge;
}

let create obs =
  {
    table = Hashtbl.create 32;
    events_executed = Obs.Registry.counter obs ~name:"engine.events_executed_total";
    timers_set = Obs.Registry.counter obs ~name:"engine.timer_set_total";
    timers_fired = Obs.Registry.counter obs ~name:"engine.timer_fired_total";
    timers_cancelled = Obs.Registry.counter obs ~name:"engine.timer_cancelled_total";
    timers_orphaned = Obs.Registry.counter obs ~name:"engine.timer_orphaned_total";
    timers_reclaimed = Obs.Registry.counter obs ~name:"engine.timer_reclaimed_total";
    queue_high_water = Obs.Registry.gauge obs ~name:"engine.queue_depth_high_water";
    timer_residency_high_water = Obs.Registry.gauge obs ~name:"engine.timer_residency_high_water";
  }

let cell t ~component ~tag =
  let key = (component, tag) in
  match Hashtbl.find_opt t.table key with
  | Some c -> c
  | None ->
    let c = { c_sent = 0; c_delivered = 0; c_dropped = 0 } in
    Hashtbl.add t.table key c;
    c

let count_send c = c.c_sent <- c.c_sent + 1
let count_deliver c = c.c_delivered <- c.c_delivered + 1
let count_drop c = c.c_dropped <- c.c_dropped + 1

let on_event_executed t = Obs.Registry.incr t.events_executed
let on_timer_set t = Obs.Registry.incr t.timers_set
let on_timer_fired t = Obs.Registry.incr t.timers_fired
let on_timer_cancelled t = Obs.Registry.incr t.timers_cancelled
let on_timer_orphaned t = Obs.Registry.incr t.timers_orphaned
let on_timer_reclaimed t = Obs.Registry.incr t.timers_reclaimed
let note_queue_depth t ~depth = Obs.Registry.set_max t.queue_high_water depth

let note_timer_residency t ~residency =
  Obs.Registry.set_max t.timer_residency_high_water residency

let lifecycle t =
  {
    events_executed = Obs.Registry.count t.events_executed;
    timers_set = Obs.Registry.count t.timers_set;
    timers_fired = Obs.Registry.count t.timers_fired;
    timers_cancelled = Obs.Registry.count t.timers_cancelled;
    timers_orphaned = Obs.Registry.count t.timers_orphaned;
    timers_reclaimed = Obs.Registry.count t.timers_reclaimed;
    queue_high_water = Obs.Registry.level t.queue_high_water;
    timer_residency_high_water = Obs.Registry.level t.timer_residency_high_water;
  }

let component_counts t ~component =
  Hashtbl.fold
    (fun (c, _) v acc -> if String.equal c component then add acc (read v) else acc)
    t.table zero

let total t = Hashtbl.fold (fun _ v acc -> add acc (read v)) t.table zero

type snapshot = (string * string * counts) list

(* Sorted so the result is a pure function of the counters, independent of
   the table's insertion history (see HACKING.md, "Determinism rules"). *)
let snapshot t =
  Hashtbl.fold (fun (c, tag) v acc -> (c, tag, read v) :: acc) t.table []
  |> List.sort (fun (c1, t1, _) (c2, t2, _) ->
         match String.compare c1 c2 with 0 -> String.compare t1 t2 | c -> c)

let sent_in_snapshot snap ~component =
  List.fold_left
    (fun acc (c, _, v) -> if String.equal c component then acc + v.sent else acc)
    0 snap

let sent_since t snap ~component =
  (component_counts t ~component).sent - sent_in_snapshot snap ~component
