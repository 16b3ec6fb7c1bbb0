(** Hierarchical timer wheel: the engine's event order.

    Orders dense integer cells by (deadline, scheduling sequence) with
    O(1) amortised insert and pop and {b no minor-heap allocation} on the
    steady-state path — no heap node, no closure, no boxed entry per
    occurrence.  The engine runs one instance over its event slab, whose
    slots hold every scheduled thing — messages, crashes, harness actions
    and timers — so the wheel's order is the engine's whole event order
    (HACKING.md, "Engine guarantees").

    Layout: {!levels} levels of {!slots_per_level} power-of-two buckets
    (level [k] spans deltas [[32{^k}, 32{^k+1})]), per-level occupancy
    bitmaps, intrusive singly-linked slot lists threaded through one int
    per cell, and an overflow list for deadlines at least {!span} ticks
    ahead.  Cascading is lazy: the cursor advances only at {!pop}, to the
    cached minimum deadline, re-placing just the slot containing the new
    cursor position at each level.

    The wheel never removes a cell before its deadline: cancelling a
    timer marks its slab slot and the cell still pops on time (and is
    reclaimed there), which matches the engine's reclaim-at-pop
    accounting and keeps the slot lists singly linked. *)

type t

val slot_bits : int
val slots_per_level : int  (** 32 *)

val levels : int  (** 6 *)

val span : int
(** [slots_per_level ^ levels] — deadlines at least this far ahead of the
    cursor park in the overflow list until the cursor gets near. *)

val create : unit -> t

val reset : t -> unit
(** Empty the wheel, as {!create} would leave it, but keep its per-cell
    columns and firing batch at their current capacity.  Cost is
    independent of that capacity: the columns are left as they are, since
    {!add} writes a cell's words before anything reads them. *)

val cardinal : t -> int
(** Pending cells (inserted, not yet popped — armed or cancelled alike). *)

val is_empty : t -> bool

val capacity : t -> int
(** Per-cell column capacity (>= the largest cell index ever added). *)

val ensure_capacity : t -> int -> unit
(** Grow the per-cell columns to hold cell indices below the argument.
    Amortised doubling; {!add} also grows on demand. *)

val shrink_capacity : t -> int -> unit
(** Drop the per-cell columns down to the argument.  The caller guarantees
    no cell at or above it is pending ({!Engine.compact} shrinks to the
    event slab's live high-water, and a pending cell is never in a free
    slot). *)

val add : t -> cell:int -> deadline:Sim_time.t -> seq:int -> unit
(** Insert [cell] to pop at [deadline], ordered among equal deadlines by
    [seq] (which must be fresh and monotone, as the engine's single
    scheduling counter is).
    A cell must not be re-added before it pops.  Raises
    [Invalid_argument] if [deadline] is behind an already-popped one. *)

val next_at : t -> Sim_time.t
(** Earliest pending deadline (exact, O(1) — maintained cache).  Raises
    [Invalid_argument] when empty; guard with {!is_empty}. *)

val pop : t -> int
(** Remove and return the cell with the least (deadline, seq).  Raises
    [Invalid_argument] when empty. *)

