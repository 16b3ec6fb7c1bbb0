(* Hierarchical (hashed) timer wheel over dense integer cells.

   The engine's event slab hands out dense slot indices ("cells"); this
   module orders the pending cells by (deadline, sequence) without a heap
   node or closure per occurrence.  Layout:

   - [levels] levels of [1 lsl slot_bits] slots each.  Level [k] covers
     deltas (deadline - cur) in [32^k, 32^(k+1)) — level 0 covers [0, 32) —
     so the wheel spans [span] = 32^levels ticks ahead of the cursor.
     A cell's slot index at level [k] is [(deadline lsr (5k)) land 31],
     i.e. derived from the absolute deadline, so a lazily parked cell stays
     addressable after the cursor moves.
   - Slots are singly-linked lists threaded through [cell_next] (intrusive:
     one int per cell, no list nodes).  Appending at the tail keeps each
     slot in insertion order.
   - Per-level occupancy bitmaps ([occ]) make "first non-empty slot" a few
     shifts and a count-trailing-zeros.
   - Deadlines at least [span] ahead go to a singly-linked overflow list
     with a tracked minimum, migrated into the wheel when the cursor gets
     near.

   The cursor ([cur]) advances only inside [pop], to the cached minimum
   deadline: slots strictly between the old and new cursor position are
   provably empty (they could only hold deadlines below the minimum), so
   advancing cascades exactly the slot containing the new cursor at each
   level.  All cells carrying the minimum deadline end up in one level-0
   slot, which is drained into a firing batch sorted by sequence number
   (one comparison pass; in-place insertion sort only when a cascade
   actually interleaved orders).  The pop path performs no minor-heap
   allocation: intrusive lists, int arrays, hole-free batch reuse.

   Cancellation is the engine's business (a cancelled timer's cell stays
   parked until its deadline pops, matching the engine's reclaim-at-pop
   accounting), so the wheel never unlinks mid-list — which is what lets
   the lists be singly linked. *)

let slot_bits = 5
let slots_per_level = 1 lsl slot_bits
let slot_mask = slots_per_level - 1
let levels = 6
let span = 1 lsl (slot_bits * levels)

type t = {
  (* Per-cell columns, indexed by the engine's dense slab slot. *)
  mutable cell_at : int array;  (* absolute deadline *)
  mutable cell_seq : int array;  (* engine-global scheduling sequence *)
  mutable cell_next : int array;  (* intrusive slot/overflow list link; -1 = end *)
  (* Slot lists: [heads]/[tails] are [levels * slots_per_level] wide. *)
  heads : int array;
  tails : int array;
  occ : int array;  (* per-level occupancy bitmap, bit i = slot i non-empty *)
  mutable cur : int;  (* wheel time: every pending deadline is >= cur *)
  mutable cardinal : int;
  (* Overflow list (delta >= span at placement time). *)
  mutable ovf_head : int;
  mutable ovf_tail : int;
  mutable ovf_min_at : int;  (* max_int when empty *)
  (* Cached earliest pending deadline; max_int when empty. *)
  mutable min_at : int;
  (* Firing batch: cells sharing the minimum deadline, sorted by seq. *)
  mutable batch : int array;
  mutable batch_pos : int;
  mutable batch_len : int;
  mutable batch_active : bool;
  mutable batch_at : int;
}

let create () =
  {
    cell_at = [||];
    cell_seq = [||];
    cell_next = [||];
    heads = Array.make (levels * slots_per_level) (-1);
    tails = Array.make (levels * slots_per_level) (-1);
    occ = Array.make levels 0;
    cur = 0;
    cardinal = 0;
    ovf_head = -1;
    ovf_tail = -1;
    ovf_min_at = max_int;
    min_at = max_int;
    batch = [||];
    batch_pos = 0;
    batch_len = 0;
    batch_active = false;
    batch_at = 0;
  }

(* Every per-cell column word and batch entry is written by [add] or
   [build_batch] before it is read, so only the lists, bitmaps, cursor and
   counters need clearing. *)
let reset t =
  Array.fill t.heads 0 (Array.length t.heads) (-1);
  Array.fill t.tails 0 (Array.length t.tails) (-1);
  Array.fill t.occ 0 levels 0;
  t.cur <- 0;
  t.cardinal <- 0;
  t.ovf_head <- -1;
  t.ovf_tail <- -1;
  t.ovf_min_at <- max_int;
  t.min_at <- max_int;
  t.batch_pos <- 0;
  t.batch_len <- 0;
  t.batch_active <- false;
  t.batch_at <- 0

let cardinal t = t.cardinal
let is_empty t = t.cardinal = 0
let capacity t = Array.length t.cell_at

let[@check.allow bulk
     "amortized cell-column growth: the three parallel columns double \
      together, so per-add cost is O(1) and a steady-state run never takes \
      this branch"] ensure_capacity t n =
  let cap = Array.length t.cell_at in
  if n > cap then begin
    let cap' = Int.max 16 (Int.max n (2 * cap)) in
    let at' = Array.make cap' 0 in
    let seq' = Array.make cap' 0 in
    let next' = Array.make cap' (-1) in
    Array.blit t.cell_at 0 at' 0 cap;
    Array.blit t.cell_seq 0 seq' 0 cap;
    Array.blit t.cell_next 0 next' 0 cap;
    t.cell_at <- at';
    t.cell_seq <- seq';
    t.cell_next <- next'
  end

let shrink_capacity t n =
  let cap = Array.length t.cell_at in
  if n < cap then begin
    (* Caller guarantees no cell >= n is currently pending. *)
    t.cell_at <- Array.sub t.cell_at 0 n;
    t.cell_seq <- Array.sub t.cell_seq 0 n;
    t.cell_next <- Array.sub t.cell_next 0 n
  end;
  if (not t.batch_active) && Array.length t.batch > 16 then t.batch <- Array.make 16 0

(* Count trailing zeros of a non-zero mask (loop, not a table: called a
   handful of times per firing batch, never per cell). *)
let rec ctz_from m i = if m land 1 = 1 then i else ctz_from (m lsr 1) (i + 1)
let ctz m = ctz_from m 0

let level_of_delta delta =
  if delta < 1 lsl slot_bits then 0
  else if delta < 1 lsl (2 * slot_bits) then 1
  else if delta < 1 lsl (3 * slot_bits) then 2
  else if delta < 1 lsl (4 * slot_bits) then 3
  else if delta < 1 lsl (5 * slot_bits) then 4
  else 5

let append_slot t k slot cell =
  let idx = (k lsl slot_bits) lor slot in
  t.cell_next.(cell) <- -1;
  let tail = t.tails.(idx) in
  if tail < 0 then begin
    t.heads.(idx) <- cell;
    t.occ.(k) <- t.occ.(k) lor (1 lsl slot)
  end
  else t.cell_next.(tail) <- cell;
  t.tails.(idx) <- cell

let push_overflow t cell =
  t.cell_next.(cell) <- -1;
  if t.ovf_tail < 0 then t.ovf_head <- cell else t.cell_next.(t.ovf_tail) <- cell;
  t.ovf_tail <- cell;
  let d = t.cell_at.(cell) in
  if d < t.ovf_min_at then t.ovf_min_at <- d

(* Park [cell] according to its current delta from the cursor. *)
let place t cell =
  let d = t.cell_at.(cell) in
  let delta = d - t.cur in
  if delta >= span then push_overflow t cell
  else begin
    let k = level_of_delta delta in
    append_slot t k ((d lsr (k * slot_bits)) land slot_mask) cell
  end

let rec place_list t cell =
  if cell >= 0 then begin
    let next = t.cell_next.(cell) in
    place t cell;
    place_list t next
  end

(* Re-thread the overflow list, migrating into the wheel every cell whose
   delta has shrunk below [span].  Relative order is preserved. *)
let rec migrate_overflow_list t cell =
  if cell >= 0 then begin
    let next = t.cell_next.(cell) in
    let d = t.cell_at.(cell) in
    if d - t.cur < span then place t cell
    else begin
      t.cell_next.(cell) <- -1;
      if t.ovf_tail < 0 then t.ovf_head <- cell else t.cell_next.(t.ovf_tail) <- cell;
      t.ovf_tail <- cell;
      if d < t.ovf_min_at then t.ovf_min_at <- d
    end;
    migrate_overflow_list t next
  end

let migrate_overflow t =
  let head = t.ovf_head in
  t.ovf_head <- -1;
  t.ovf_tail <- -1;
  t.ovf_min_at <- max_int;
  migrate_overflow_list t head

(* Advance the cursor to [target] (the exact minimum pending deadline) and
   cascade: at each level, only the slot containing [target] can hold cells
   — every slot strictly between the old and new cursor would hold a
   deadline below the minimum, hence is empty — and its cells re-place at
   strictly lower levels (a cell re-landing at level k would need
   delta >= 32^k, impossible inside the containing slot). *)
let[@alloc.zero] advance_to t target =
  t.cur <- target;
  if t.ovf_head >= 0 && t.ovf_min_at - target < span then migrate_overflow t;
  for k = levels - 1 downto 1 do
    let slot = (target lsr (k * slot_bits)) land slot_mask in
    if t.occ.(k) land (1 lsl slot) <> 0 then begin
      let idx = (k lsl slot_bits) lor slot in
      let head = t.heads.(idx) in
      t.heads.(idx) <- -1;
      t.tails.(idx) <- -1;
      t.occ.(k) <- t.occ.(k) land lnot (1 lsl slot);
      place_list t head
    end
  done

let[@check.allow bulk
     "amortized firing-batch growth: doubles, so per-pop cost is O(1); the \
      batch array is retained between batches and reused"] grow_batch t =
  let cap = Array.length t.batch in
  if t.batch_len = cap then begin
    let batch' = Array.make (Int.max 16 (2 * cap)) 0 in
    Array.blit t.batch 0 batch' 0 cap;
    t.batch <- batch'
  end

let push_batch t cell =
  grow_batch t;
  t.batch.(t.batch_len) <- cell;
  t.batch_len <- t.batch_len + 1

let rec batch_collect t cell =
  if cell >= 0 then begin
    let next = t.cell_next.(cell) in
    push_batch t cell;
    batch_collect t next
  end

let rec batch_sorted t i =
  i >= t.batch_len
  || (t.cell_seq.(t.batch.(i - 1)) < t.cell_seq.(t.batch.(i)) && batch_sorted t (i + 1))

let rec insert_shift t j seq =
  if j >= 0 && t.cell_seq.(t.batch.(j)) > seq then begin
    t.batch.(j + 1) <- t.batch.(j);
    insert_shift t (j - 1) seq
  end
  else j

let batch_sort t =
  for i = 1 to t.batch_len - 1 do
    let cell = t.batch.(i) in
    let j = insert_shift t (i - 1) t.cell_seq.(cell) in
    t.batch.(j + 1) <- cell
  done

let build_batch t =
  let target = t.min_at in
  advance_to t target;
  let slot = target land slot_mask in
  let idx = slot in
  (* Level-0 slots hold a single deadline (deadlines in one slot agree
     mod 32 and all live in [cur, cur+32)), so this list is exactly the
     cells due at [target]. *)
  let head = t.heads.(idx) in
  t.heads.(idx) <- -1;
  t.tails.(idx) <- -1;
  t.occ.(0) <- t.occ.(0) land lnot (1 lsl slot);
  t.batch_pos <- 0;
  t.batch_len <- 0;
  batch_collect t head;
  if not (batch_sorted t 1) then batch_sort t;
  t.batch_at <- target;
  t.batch_active <- true

(* Walk one slot list lowering the cached minimum deadline; used by the
   post-batch rescan. *)
let rec slot_min t cell =
  if cell >= 0 then begin
    let d = t.cell_at.(cell) in
    if d < t.min_at then t.min_at <- d;
    slot_min t t.cell_next.(cell)
  end

(* Scan one run of occupied slots (a bitmap whose bits all share the same
   window [base]) in ascending index = ascending window-start order,
   feeding each slot that can still undercut the cached minimum into
   [slot_min].  A slot whose window starts past the current minimum ends
   the run (false): every later slot in window order starts later still,
   and its cells' deadlines are >= that start. *)
let rec scan_run t k width m base =
  if m = 0 then true
  else begin
    let i = ctz m in
    let start = base + (i * width) in
    if start > t.min_at then false
    else begin
      slot_min t t.heads.((k lsl slot_bits) lor i);
      scan_run t k width (m land lnot (1 lsl i)) base
    end
  end

(* Occupied slots of level [k] in circular order from the cursor's
   position — increasing order of the slots' absolute windows: first the
   indices at or above the cursor's (current window), then the wrapped
   indices below it (next window). *)
let scan_level t k =
  let m = t.occ.(k) in
  if m <> 0 then begin
    let width = 1 lsl (k * slot_bits) in
    let wrap = width * slots_per_level in
    let base = t.cur land lnot (wrap - 1) in
    let i0 = (t.cur lsr (k * slot_bits)) land slot_mask in
    let m_hi = m land lnot ((1 lsl i0) - 1) in
    let m_lo = m land ((1 lsl i0) - 1) in
    if scan_run t k width m_hi base then
      ignore (scan_run t k width m_lo (base + wrap) : bool)
  end

(* Recompute the cached minimum by scanning.  No cascading here: rescan
   must terminate even when cells are parked far ahead, and a scan is
   bounded by the live cells whereas an eager cascade could re-place a
   far-future slot into itself forever. *)
let rescan t =
  t.min_at <- max_int;
  if t.cardinal > 0 then begin
    for k = 0 to levels - 1 do
      scan_level t k
    done;
    (* Overflow deadlines are >= cur + span, so they only matter when the
       wheel proper is empty — and then [ovf_min_at] is exact. *)
    if t.ovf_min_at < t.min_at then t.min_at <- t.ovf_min_at
  end

let[@alloc.zero] add t ~cell ~deadline ~seq =
  ensure_capacity t (cell + 1);
  if deadline < t.cur then invalid_arg "Timer_wheel.add: deadline before cursor";
  t.cell_at.(cell) <- deadline;
  t.cell_seq.(cell) <- seq;
  t.cardinal <- t.cardinal + 1;
  if t.batch_active && deadline = t.batch_at then push_batch t cell else place t cell;
  if deadline < t.min_at then t.min_at <- deadline

let next_at t =
  if t.cardinal = 0 then invalid_arg "Timer_wheel.next_at: empty wheel";
  t.min_at

let[@alloc.zero] pop t =
  if t.cardinal = 0 then invalid_arg "Timer_wheel.pop: empty wheel";
  if not t.batch_active then build_batch t;
  let cell = t.batch.(t.batch_pos) in
  t.batch_pos <- t.batch_pos + 1;
  t.cardinal <- t.cardinal - 1;
  if t.batch_pos = t.batch_len then begin
    t.batch_active <- false;
    t.batch_pos <- 0;
    t.batch_len <- 0;
    rescan t
  end;
  cell
