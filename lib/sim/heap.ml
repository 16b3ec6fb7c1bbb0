(* Elements live in boxed slots so a vacated position can be reset to
   [Empty] without needing a dummy value of type ['a] (same storage scheme
   as the standard library's [Dynarray]).  The extra indirection is one
   minor-heap word per live element; in exchange [pop] genuinely releases
   popped elements to the GC — the engine's event payloads hold closures,
   so retaining them would leak every timer callback ever scheduled. *)
type 'a slot = Empty | Elem of { v : 'a }

type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a slot array;
  mutable size : int;
  (* Count of [Elem] slots, maintained at the two places a slot changes
     occupancy ([push] fills one, [pop] vacates one) and at the bulk
     operations ([clear], [shrink]).  Equal to [size] unless there is a
     retention bug; [scan_live_slots] recounts from the array to check. *)
  mutable live : int;
}

(* [clear] and first [grow] both land on this capacity, so an emptied heap
   and a fresh one behave identically. *)
let min_capacity = 8

let create ~cmp = { cmp; data = [||]; size = 0; live = 0 }

let length t = t.size
let is_empty t = t.size = 0
let capacity t = Array.length t.data

let live_slots t = t.live

let scan_live_slots t =
  Array.fold_left (fun acc s -> match s with Empty -> acc | Elem _ -> acc + 1) 0 t.data

let get t i = match t.data.(i) with Elem e -> e.v | Empty -> assert false

let grow t =
  let capacity = Array.length t.data in
  if t.size = capacity then begin
    let capacity' = Stdlib.max min_capacity (2 * capacity) in
    let data' = Array.make capacity' Empty in
    Array.blit t.data 0 data' 0 t.size;
    t.data <- data'
  end

(* Hole-based sifts: the displaced slot [s] rides in a register while the
   hole migrates, one slot write per level instead of the three of a
   swap-based sift, and — unlike the previous [ref]-accumulator version of
   [sift_down] — no minor-heap allocation at all on the pop path. *)

(* The hole-migration loops are top-level (not [let rec] closures inside
   the sifts): a local recursive closure capturing [t] and [v] is a fresh
   minor-heap block per call, which is exactly the allocation the rewrite
   exists to remove. *)

let rec sift_up_hole t v i =
  if i = 0 then i
  else begin
    let parent = (i - 1) / 2 in
    if (t.cmp v (get t parent)
       [@check.allow extern
           "caller-supplied comparison: the engine's comparators are int \
            comparisons (Event_queue.compare_entry); watched by e20"])
       < 0
    then begin
      t.data.(i) <- t.data.(parent);
      sift_up_hole t v parent
    end
    else i
  end

let[@alloc.zero] sift_up t i s =
  let v = match s with Elem e -> e.v | Empty -> assert false in
  t.data.(sift_up_hole t v i) <- s

let rec sift_down_hole t v i =
  let left = (2 * i) + 1 in
  if left >= t.size then i
  else begin
    let right = left + 1 in
    let child =
      if right < t.size
         && (t.cmp (get t right) (get t left)
            [@check.allow extern
                "caller-supplied comparison: the engine's comparators are int \
                 comparisons (Event_queue.compare_entry); watched by e20"])
            < 0
      then right
      else left
    in
    if (t.cmp (get t child) v
       [@check.allow extern
           "caller-supplied comparison: the engine's comparators are int \
            comparisons (Event_queue.compare_entry); watched by e20"])
       < 0
    then begin
      t.data.(i) <- t.data.(child);
      sift_down_hole t v child
    end
    else i
  end

let[@alloc.zero] sift_down t i s =
  let v = match s with Elem e -> e.v | Empty -> assert false in
  t.data.(sift_down_hole t v i) <- s

let push t x =
  grow t;
  t.size <- t.size + 1;
  t.live <- t.live + 1;
  sift_up t (t.size - 1) (Elem { v = x })

let peek t = if t.size = 0 then None else Some (get t 0)

let top_exn t =
  if t.size = 0 then invalid_arg "Heap.top_exn: empty heap";
  get t 0

let[@alloc.zero] pop_exn t =
  if t.size = 0 then invalid_arg "Heap.pop_exn: empty heap";
  let top = get t 0 in
  t.size <- t.size - 1;
  let last = t.data.(t.size) in
  t.data.(t.size) <- Empty;
  if t.size > 0 then sift_down t 0 last;
  t.live <- t.live - 1;
  top

let pop t = if t.size = 0 then None else Some (pop_exn t)

let shrink t =
  let target = Stdlib.max min_capacity t.size in
  if Array.length t.data > target then begin
    let data' = Array.make target Empty in
    Array.blit t.data 0 data' 0 t.size;
    t.data <- data';
    (* Only the [size]-element prefix was copied; any leaked slot beyond it
       (impossible unless [pop] regresses) is gone now. *)
    t.live <- t.size
  end

let clear t =
  if Array.length t.data > min_capacity then t.data <- Array.make min_capacity Empty
  else Array.fill t.data 0 (Array.length t.data) Empty;
  t.size <- 0;
  t.live <- 0

let to_list_unordered t =
  let rec collect i acc = if i < 0 then acc else collect (i - 1) (get t i :: acc) in
  collect (t.size - 1) []
