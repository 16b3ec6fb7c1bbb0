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
   Simulations have few distinct keys, so a Hashtbl is ample.  The
   per-message counters reach it through [cells], which answers the
   repeated constant keys without hashing. *)
type t = {
  table : (string * string, cell) Hashtbl.t;
  cells : cell Phys_cache.t;
  mutable events_executed : int;
  mutable timers_set : int;
  mutable timers_fired : int;
  mutable timers_cancelled : int;
  mutable timers_orphaned : int;
  mutable timers_reclaimed : int;
  mutable queue_high_water : int;
  mutable timer_residency_high_water : int;
}

let find_or_add table component tag _ =
  let key = (component, tag) in
  match Hashtbl.find_opt table key with
  | Some c -> c
  | None ->
    let c = { c_sent = 0; c_delivered = 0; c_dropped = 0 } in
    Hashtbl.add table key c;
    c

let create () =
  let table = Hashtbl.create 32 in
  {
    table;
    cells =
      Phys_cache.create ~dummy:{ c_sent = 0; c_delivered = 0; c_dropped = 0 } (find_or_add table);
    events_executed = 0;
    timers_set = 0;
    timers_fired = 0;
    timers_cancelled = 0;
    timers_orphaned = 0;
    timers_reclaimed = 0;
    queue_high_water = 0;
    timer_residency_high_water = 0;
  }

let cell t ~component ~tag = Phys_cache.find t.cells component tag ""

let on_send t ~component ~tag =
  let c = cell t ~component ~tag in
  c.c_sent <- c.c_sent + 1

let on_deliver t ~component ~tag =
  let c = cell t ~component ~tag in
  c.c_delivered <- c.c_delivered + 1

let on_drop t ~component ~tag =
  let c = cell t ~component ~tag in
  c.c_dropped <- c.c_dropped + 1

let on_event_executed t = t.events_executed <- t.events_executed + 1
let on_timer_set t = t.timers_set <- t.timers_set + 1
let on_timer_fired t = t.timers_fired <- t.timers_fired + 1
let on_timer_cancelled t = t.timers_cancelled <- t.timers_cancelled + 1
let on_timer_orphaned t = t.timers_orphaned <- t.timers_orphaned + 1
let on_timer_reclaimed t = t.timers_reclaimed <- t.timers_reclaimed + 1

let note_queue_depth t ~depth =
  if depth > t.queue_high_water then t.queue_high_water <- depth

let note_timer_residency t ~residency =
  if residency > t.timer_residency_high_water then
    t.timer_residency_high_water <- residency

let lifecycle t =
  {
    events_executed = t.events_executed;
    timers_set = t.timers_set;
    timers_fired = t.timers_fired;
    timers_cancelled = t.timers_cancelled;
    timers_orphaned = t.timers_orphaned;
    timers_reclaimed = t.timers_reclaimed;
    queue_high_water = t.queue_high_water;
    timer_residency_high_water = t.timer_residency_high_water;
  }

let pp_lifecycle ppf (l : lifecycle) =
  Format.fprintf ppf
    "events=%d timers(set=%d fired=%d cancelled=%d orphaned=%d reclaimed=%d) \
     queue-high-water=%d timer-residency-high-water=%d"
    l.events_executed l.timers_set l.timers_fired l.timers_cancelled l.timers_orphaned
    l.timers_reclaimed l.queue_high_water l.timer_residency_high_water

let component_counts t ~component =
  Hashtbl.fold
    (fun (c, _) v acc -> if String.equal c component then add acc (read v) else acc)
    t.table zero

let tag_counts t ~component ~tag =
  match Hashtbl.find_opt t.table (component, tag) with Some c -> read c | None -> zero

let total t = Hashtbl.fold (fun _ v acc -> add acc (read v)) t.table zero

let components t =
  Hashtbl.fold (fun (c, _) _ acc -> c :: acc) t.table []
  |> List.sort_uniq String.compare

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

let total_sent_since t snap =
  (total t).sent - List.fold_left (fun acc (_, _, v) -> acc + v.sent) 0 snap
