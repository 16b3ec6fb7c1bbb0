type body =
  | Send of {
      at : Sim_time.t;
      src : Pid.t;
      dst : Pid.t;
      msg : int;
      component : string;
      tag : string;
    }
  | Deliver of {
      at : Sim_time.t;
      src : Pid.t;
      dst : Pid.t;
      msg : int;
      component : string;
      tag : string;
    }
  | Drop of {
      at : Sim_time.t;
      src : Pid.t;
      dst : Pid.t;
      msg : int;
      component : string;
      tag : string;
      reason : string;
    }
  | Crash of { at : Sim_time.t; pid : Pid.t }
  | Fd_view of {
      at : Sim_time.t;
      pid : Pid.t;
      component : string;
      suspected : Pid.Set.t;
      trusted : Pid.t option;
    }
  | Propose of { at : Sim_time.t; pid : Pid.t; value : int }
  | Decide of { at : Sim_time.t; pid : Pid.t; value : int; round : int }
  | Note of { at : Sim_time.t; pid : Pid.t; tag : string; detail : string }
  | Span_begin of { at : Sim_time.t; pid : Pid.t; component : string; span : int; name : string }
  | Span_end of { at : Sim_time.t; pid : Pid.t; component : string; span : int; name : string }

type event = { seq : int; lc : int; body : body }

module Kind = struct
  type t = Send | Deliver | Drop | Crash | Fd_view | Propose | Decide | Note | Span_begin | Span_end

  let code = function
    | Send -> 0
    | Deliver -> 1
    | Drop -> 2
    | Crash -> 3
    | Fd_view -> 4
    | Propose -> 5
    | Decide -> 6
    | Note -> 7
    | Span_begin -> 8
    | Span_end -> 9

  let of_code = function
    | 0 -> Send
    | 1 -> Deliver
    | 2 -> Drop
    | 3 -> Crash
    | 4 -> Fd_view
    | 5 -> Propose
    | 6 -> Decide
    | 7 -> Note
    | 8 -> Span_begin
    | _ -> Span_end
end

(* Storage (see trace.mli): a chunk with room for [r] events is three
   columns of [r] words each, and event [seq] is row [j = seq land
   chunk_mask] of chunk [seq lsr chunk_bits]:

     [j]         head   kind (4 bits) | a (21) | b (21) | label (17), low to high
     [r + j]     time   (lc lsl 31) lor at, or [escaped] (-1)
     [2r + j]    x      msg, span, value, or an index into a side vector

   [a]/[b] are the two pids (src/dst, or pid/trusted with [no_pid] for
   [None]).  A label interns the event's strings as one triple: (component,
   tag, reason) for messages, (component, name) for spans, (component) for
   views and (tag) for notes.  The rare payloads live in side vectors that
   [x] indexes: a view's suspected set, a note's detail, a decision's
   (value, round).  The chunks are Bigarrays, so the GC neither scans nor
   moves them; only the labels and side payloads are heap values.

   The time word packs [at] and [lc] when both lie in [0, 2^31), as they
   do in every engine run here; the packed word is then non-negative.
   Any other event (a hand-built one with a negative or huge time) stores
   [escaped] there and keeps its pair in the trace's [escapes] table,
   keyed by [seq].  Columns let a pass that filters on kind read the head
   column alone, and the time or [x] word only of the events it keeps. *)
type chunk = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let columns = 3
let time_bits = 31
let time_mask = (1 lsl time_bits) - 1
let escaped = -1
let chunk_bits = 14
let chunk_events = 1 lsl chunk_bits
let chunk_mask = chunk_events - 1
let first_chunk_events = 256
let pid_bits = 21
let pid_mask = (1 lsl pid_bits) - 1
let no_pid = pid_mask
let max_pid = no_pid - 1
let label_shift = 4 + (2 * pid_bits)
let max_labels = 1 lsl (Sys.int_size - label_shift)

type 'a vec = { mutable data : 'a array; mutable len : int }

let vec () = { data = [||]; len = 0 }

let push v x =
  if v.len = Array.length v.data then begin
    let data = Array.make (Int.max 8 (2 * v.len)) x in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1;
  v.len - 1

type triple = { l1 : string; l2 : string; l3 : string }

module Label_tbl = Hashtbl.Make (struct
  type t = triple

  let equal a b = String.equal a.l1 b.l1 && String.equal a.l2 b.l2 && String.equal a.l3 b.l3
  let hash = Hashtbl.hash
end)

module Int_tbl = Hashtbl.Make (Int)

type times = { esc_at : int; esc_lc : int }

(* [clocks] is the per-process Lamport clock, grown on demand — the trace
   does not know [n], and hand-built test traces should not have to
   declare it.  [cur] is the chunk the next event goes to, [cur_rows] its
   capacity (the offset of its time column), and [cur_limit] one past the
   last index it has room for, so a write tests one int.
   [send_lc] maps an in-flight message id to its send stamp for {!record}
   alone: the engine carries the stamp itself and hands it back to
   [record_deliver]/[record_drop].  A [Deliver] or [Drop] consumes the
   entry, so the table's residency is bounded by in-flight messages, not
   run length.  [label_cache] sits in front of [label_ids]: callers pass
   the same physical component and tag constants over and over, so most
   interning skips hashing.  [escapes] holds the (at, lc) of every event
   whose time word is [escaped], by [seq].

   [pages] is the trace's storage that holds no OCaml value: its chunks.
   The first [n_chunks] are in use.  Those from [n_chunks] up to [owned]
   are full-size chunks taken over from a collected predecessor, and every
   word of them is dead until [advance_chunk] hands them out and [append]
   writes them.  Chunk 0 is always the trace's own, as it starts small. *)
type pages = { mutable chunks : chunk array; mutable n_chunks : int; mutable owned : int }

type t = {
  pages : pages;
  recycled : int;  (* full-size chunks taken over at [create] *)
  mutable count : int;
  mutable cur : chunk;
  mutable cur_rows : int;
  mutable cur_limit : int;
  labels : triple vec;
  label_ids : int Label_tbl.t;
  label_cache : int Phys_cache.t;
  sets : Pid.Set.t vec;
  texts : string vec;
  ints : int vec;
  mutable clocks : int array;
  send_lc : int Int_tbl.t;
  escapes : times Int_tbl.t;
}

type label = int

let no_label = { l1 = ""; l2 = ""; l3 = "" }

let intern_label labels label_ids l1 l2 l3 =
  let key = { l1; l2; l3 } in
  match Label_tbl.find_opt label_ids key with
  | Some id -> id
  | None ->
    if labels.len >= max_labels then
      invalid_arg (Printf.sprintf "Trace.record: more than %d distinct labels" max_labels);
    let id = push labels key in
    Label_tbl.add label_ids key id;
    id

let new_chunk events : chunk =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout (events * columns)

let chunk_rows (c : chunk) = Bigarray.Array1.dim c / columns

(* The most recent trace's pages on each domain, handed to the next
   [create] on that domain once that trace has been collected. *)
let spare : (t, pages) Exec.Spare.t = Exec.Spare.create ()

(* Label 0 is the empty triple, the label of the kinds that carry no
   string ([body_at] reads it unconditionally). *)
let create () =
  let labels = vec () in
  let label_ids = Label_tbl.create 16 in
  Label_tbl.add label_ids no_label (push labels no_label);
  let pages =
    match Exec.Spare.take spare with
    | Some p ->
      p.n_chunks <- 0;
      p
    | None -> { chunks = [||]; n_chunks = 0; owned = 0 }
  in
  let t =
    {
      pages;
      recycled = Int.max 0 (pages.owned - 1);
      count = 0;
      cur = new_chunk 0;
      cur_rows = 0;
      cur_limit = 0;
      labels;
      label_ids;
      label_cache = Phys_cache.create ~dummy:0 (intern_label labels label_ids);
      sets = vec ();
      texts = vec ();
      ints = vec ();
      clocks = [||];
      send_lc = Int_tbl.create 16;
      escapes = Int_tbl.create 1;
    }
  in
  Exec.Spare.keep spare t pages;
  t

let recycled_chunks t = t.recycled

let storage_bytes t =
  let bytes = ref 0 in
  for ci = 0 to t.pages.n_chunks - 1 do
    bytes := !bytes + Bigarray.Array1.size_in_bytes t.pages.chunks.(ci)
  done;
  !bytes

let escaped_events t = Int_tbl.length t.escapes

let label t l1 l2 l3 = Phys_cache.find t.label_cache l1 l2 l3

let check_pid what p =
  if p < 0 || p > max_pid then
    invalid_arg (Printf.sprintf "Trace.record: %s %d outside [0, %d]" what p max_pid)

let send_code = Kind.code Kind.Send
let deliver_code = Kind.code Kind.Deliver
let drop_code = Kind.code Kind.Drop
let span_begin_code = Kind.code Kind.Span_begin

let head code ~a ~b label = code lor (a lsl 4) lor (b lsl (4 + pid_bits)) lor (label lsl label_shift)

let[@check.allow bulk
     "amortized growth of the per-process clock row: doubles, so a run grows it \
      O(log n) times and a steady-state run never takes this branch"]
    grow_clocks t pid =
  let capacity = Array.length t.clocks in
  let capacity' = Int.max 8 (Int.max (pid + 1) (2 * capacity)) in
  let clocks' = Array.make capacity' 0 in
  Array.blit t.clocks 0 clocks' 0 capacity;
  t.clocks <- clocks'

let clock t pid = if pid < Array.length t.clocks then t.clocks.(pid) else 0

let set_clock t pid v =
  if pid >= Array.length t.clocks then grow_clocks t pid;
  t.clocks.(pid) <- v

let tick t pid =
  let c = clock t pid + 1 in
  set_clock t pid c;
  c

(* Make [cur] the chunk event [i] is written to.  Chunk 0 starts at
   [first_chunk_events] and doubles up to [chunk_events], each column
   copied to its new offset, so a short trace stays small; every later
   chunk is full-size, a predecessor's if one is left over, else a new
   one. *)
let advance_chunk t i =
  let p = t.pages in
  let ci = i lsr chunk_bits in
  let c =
    if ci < p.n_chunks then begin
      let c = p.chunks.(ci) in
      let r = chunk_rows c in
      let r' = Int.min chunk_events (2 * r) in
      let c' = new_chunk r' in
      for col = 0 to columns - 1 do
        Bigarray.Array1.blit
          (Bigarray.Array1.sub c (col * r) r)
          (Bigarray.Array1.sub c' (col * r') r)
      done;
      p.chunks.(ci) <- c';
      c'
    end
    else if ci > 0 && ci < p.owned then begin
      p.n_chunks <- ci + 1;
      p.chunks.(ci)
    end
    else begin
      let c = new_chunk (if ci = 0 then first_chunk_events else chunk_events) in
      if ci = Array.length p.chunks then begin
        let chunks = Array.make (Int.max 8 (2 * ci)) c in
        Array.blit p.chunks 0 chunks 0 ci;
        p.chunks <- chunks
      end;
      p.chunks.(ci) <- c;
      p.n_chunks <- ci + 1;
      p.owned <- Int.max p.owned (ci + 1);
      c
    end
  in
  t.cur <- c;
  t.cur_rows <- chunk_rows c;
  t.cur_limit <- (ci lsl chunk_bits) + t.cur_rows

(* The time word of event [i] when [at] or [lc] does not fit in 31 bits:
   the pair goes to [escapes]. *)
let[@inline never] escape t i ~at ~lc =
  Int_tbl.replace t.escapes i { esc_at = at; esc_lc = lc };
  escaped

(* Write one stamped event.  Every range check has passed by now, so a
   rejected event leaves the trace as it was. *)
let append t h ~at ~lc x =
  let i = t.count in
  if i >= t.cur_limit then
    (advance_chunk t i
    [@check.allow extern
        "amortized chunk growth: a new or doubled Bigarray chunk every 2^14 events \
         at most, never on a steady-state write"]);
  let time =
    if (at lsr time_bits) lor (lc lsr time_bits) = 0 then (lc lsl time_bits) lor at
    else
      (escape t i ~at ~lc
      [@check.allow extern
          "a time outside [0, 2^31): only hand-built traces record one, and its \
           (at, lc) goes to the escape table"])
  in
  let c = t.cur and r = t.cur_rows in
  let j = i land chunk_mask in
  Bigarray.Array1.unsafe_set c j h;
  Bigarray.Array1.unsafe_set c (r + j) time;
  Bigarray.Array1.unsafe_set c (r + r + j) x;
  t.count <- i + 1

(* The clock rules (see trace.mli), one writer per rule: Send ticks the
   sender and returns its stamp; Deliver joins the receiver's clock with
   the send's stamp; Drop adopts the stamp without ticking anyone; every
   other event ticks the process it happens at. *)

let message kind ~src ~dst label =
  check_pid "src" src;
  check_pid "dst" dst;
  head kind ~a:src ~b:dst label

let[@alloc.zero] record_send t ~at ~src ~dst ~msg label =
  let h = message send_code ~src ~dst label in
  let lc = tick t src in
  append t h ~at ~lc msg;
  lc

let[@alloc.zero] record_deliver t ~at ~src ~dst ~msg ~sent_lc label =
  let h = message deliver_code ~src ~dst label in
  let lc = Int.max (clock t dst) sent_lc + 1 in
  set_clock t dst lc;
  append t h ~at ~lc msg

let record_drop t ~at ~src ~dst ~msg ~sent_lc label =
  append t (message drop_code ~src ~dst label) ~at ~lc:sent_lc msg

(* An event at one process: ticks [pid]'s clock. *)
let at_pid t kind pid ~b label ~at x =
  check_pid "pid" pid;
  let h = head (Kind.code kind) ~a:pid ~b label in
  append t h ~at ~lc:(tick t pid) x

let record_span_begin t ~at ~pid ~span label = at_pid t Kind.Span_begin pid ~b:0 label ~at span
let record_span_end t ~at ~pid ~span label = at_pid t Kind.Span_end pid ~b:0 label ~at span

(* [count] [record_span_begin]s at one pid, instant and label, with span
   ids [first], [first + 1], ...  Row [k] is stamped [c0 + k + 1], where
   [c0] is [pid]'s clock before the run.  When [at] and the last stamp
   fit in 31 bits, the rows are written straight into the columns, one
   slice per chunk; otherwise each goes through [append] and its time
   word may escape. *)
let[@alloc.zero] record_span_begins t ~at ~pid ~first ~count label =
  check_pid "pid" pid;
  if count < 0 then invalid_arg "Trace.record_span_begins: negative count";
  let h = head span_begin_code ~a:pid ~b:0 label in
  let c0 = clock t pid in
  if count > 0 && (at lsr time_bits) lor ((c0 + count) lsr time_bits) = 0 then begin
    set_clock t pid (c0 + count);
    let time0 = ((c0 + 1) lsl time_bits) lor at in
    let start = t.count in
    let stop = start + count in
    while t.count < stop do
      let i = t.count in
      if i >= t.cur_limit then
        (advance_chunk t i
        [@check.allow extern
            "amortized chunk growth: a new or doubled Bigarray chunk every 2^14 events \
             at most, never on a steady-state write"]);
      let rows = Int.min stop t.cur_limit - i in
      let c = t.cur and r = t.cur_rows in
      let j = i land chunk_mask and k = i - start in
      for d = 0 to rows - 1 do
        Bigarray.Array1.unsafe_set c (j + d) h;
        Bigarray.Array1.unsafe_set c (r + j + d) (time0 + ((k + d) lsl time_bits));
        Bigarray.Array1.unsafe_set c (r + r + j + d) (first + k + d)
      done;
      t.count <- i + rows
    done
  end
  else
    for k = 0 to count - 1 do
      append t h ~at ~lc:(tick t pid) (first + k)
    done

(* [record]'s own message stamps: a hand-built [Deliver] or [Drop] finds
   its send's stamp here (0 if none was recorded), and consumes it only
   once the event is written. *)
let sent_stamp t msg = match Int_tbl.find_opt t.send_lc msg with Some c -> c | None -> 0

let record t body =
  match body with
  | Send { at; src; dst; msg; component; tag } ->
    let lc = record_send t ~at ~src ~dst ~msg (label t component tag "") in
    if msg >= 0 then Int_tbl.replace t.send_lc msg lc
  | Deliver { at; src; dst; msg; component; tag } ->
    record_deliver t ~at ~src ~dst ~msg ~sent_lc:(sent_stamp t msg) (label t component tag "");
    Int_tbl.remove t.send_lc msg
  | Drop { at; src; dst; msg; component; tag; reason } ->
    record_drop t ~at ~src ~dst ~msg ~sent_lc:(sent_stamp t msg) (label t component tag reason);
    Int_tbl.remove t.send_lc msg
  | Crash { at; pid } -> at_pid t Kind.Crash pid ~b:0 0 ~at 0
  | Fd_view { at; pid; component; suspected; trusted } ->
    let b =
      match trusted with
      | None -> no_pid
      | Some q ->
        check_pid "trusted" q;
        q
    in
    let l = label t component "" "" in
    check_pid "pid" pid;
    at_pid t Kind.Fd_view pid ~b l ~at (push t.sets suspected)
  | Propose { at; pid; value } -> at_pid t Kind.Propose pid ~b:0 0 ~at value
  | Decide { at; pid; value; round } ->
    check_pid "pid" pid;
    let i = push t.ints value in
    ignore (push t.ints round : int);
    at_pid t Kind.Decide pid ~b:0 0 ~at i
  | Note { at; pid; tag; detail } ->
    let l = label t tag "" "" in
    check_pid "pid" pid;
    at_pid t Kind.Note pid ~b:0 l ~at (push t.texts detail)
  | Span_begin { at; pid; component; span; name } ->
    record_span_begin t ~at ~pid ~span (label t component name "")
  | Span_end { at; pid; component; span; name } ->
    record_span_end t ~at ~pid ~span (label t component name "")

let length t = t.count

let head_kind h = h land 15
let head_a h = (h lsr 4) land pid_mask
let head_b h = (h lsr (4 + pid_bits)) land pid_mask

let[@inline never] escaped_at t i = (Int_tbl.find t.escapes i).esc_at
let[@inline never] escaped_lc t i = (Int_tbl.find t.escapes i).esc_lc

(* Event [i] is row [j] of chunk [c], which has [r] rows. *)
let[@inline] at_of t (c : chunk) r j i =
  let w = Bigarray.Array1.unsafe_get c (r + j) in
  if w >= 0 then w land time_mask else escaped_at t i

let[@inline] lc_of t (c : chunk) r j i =
  let w = Bigarray.Array1.unsafe_get c (r + j) in
  if w >= 0 then w lsr time_bits else escaped_lc t i

let body_at t (c : chunk) r j i =
  let h = Bigarray.Array1.unsafe_get c j in
  let at = at_of t c r j i in
  let x = Bigarray.Array1.unsafe_get c (r + r + j) in
  let a = head_a h and b = head_b h in
  let l = t.labels.data.(h lsr label_shift) in
  match Kind.of_code (head_kind h) with
  | Kind.Send -> Send { at; src = a; dst = b; msg = x; component = l.l1; tag = l.l2 }
  | Kind.Deliver -> Deliver { at; src = a; dst = b; msg = x; component = l.l1; tag = l.l2 }
  | Kind.Drop ->
    Drop { at; src = a; dst = b; msg = x; component = l.l1; tag = l.l2; reason = l.l3 }
  | Kind.Crash -> Crash { at; pid = a }
  | Kind.Fd_view ->
    Fd_view
      { at; pid = a; component = l.l1; suspected = t.sets.data.(x);
        trusted = (if b = no_pid then None else Some b) }
  | Kind.Propose -> Propose { at; pid = a; value = x }
  | Kind.Decide -> Decide { at; pid = a; value = t.ints.data.(x); round = t.ints.data.(x + 1) }
  | Kind.Note -> Note { at; pid = a; tag = l.l1; detail = t.texts.data.(x) }
  | Kind.Span_begin -> Span_begin { at; pid = a; component = l.l1; span = x; name = l.l2 }
  | Kind.Span_end -> Span_end { at; pid = a; component = l.l1; span = x; name = l.l2 }

let event_at t c r j i = { seq = i; lc = lc_of t c r j i; body = body_at t c r j i }

(* [f chunk rows row seq] for every event recorded before the call. *)
let walk t f =
  let n = t.count in
  let ci = ref 0 in
  while !ci lsl chunk_bits < n do
    let c = t.pages.chunks.(!ci) in
    let r = chunk_rows c in
    let base = !ci lsl chunk_bits in
    for j = 0 to Int.min r (n - base) - 1 do
      f c r j (base + j)
    done;
    incr ci
  done

let iter t f = walk t (fun c r j i -> f (event_at t c r j i))

let get t i =
  let c = t.pages.chunks.(i lsr chunk_bits) in
  event_at t c (chunk_rows c) (i land chunk_mask) i

let to_seq t =
  let rec node i () = if i >= t.count then Seq.Nil else Seq.Cons (get t i, node (i + 1)) in
  node 0

let events t =
  let acc = ref [] in
  for i = t.count - 1 downto 0 do
    acc := get t i :: !acc
  done;
  !acc

let iter_kinds t kinds f =
  let mask = List.fold_left (fun m k -> m lor (1 lsl Kind.code k)) 0 kinds in
  walk t (fun c r j i ->
      if mask land (1 lsl head_kind (Bigarray.Array1.unsafe_get c j)) <> 0 then
        f (event_at t c r j i))

let iter_sends t f =
  walk t (fun c r j i ->
      let h = Bigarray.Array1.unsafe_get c j in
      if head_kind h = send_code then begin
        let l = t.labels.data.(h lsr label_shift) in
        f ~at:(at_of t c r j i) ~src:(head_a h) ~dst:(head_b h)
          ~msg:(Bigarray.Array1.unsafe_get c (r + r + j)) ~component:l.l1 ~tag:l.l2
      end)

(* [send_links]'s (src, dst) marks: [rows.(src)] has byte [dst] set once
   a wanted send went from [src] to [dst].  Rows are created and grown on
   demand, so they cost the pids seen, not [max_pid]. *)
type link_rows = { mutable rows : Bytes.t array }

let grow_rows m src =
  let capacity = Int.max 8 (Int.max (src + 1) (2 * Array.length m.rows)) in
  let rows = Array.make capacity Bytes.empty in
  Array.blit m.rows 0 rows 0 (Array.length m.rows);
  m.rows <- rows

let grow_row m src dst =
  let row = m.rows.(src) in
  let capacity = Int.max 8 (Int.max (dst + 1) (2 * Bytes.length row)) in
  let row' = Bytes.make capacity '\000' in
  Bytes.blit row 0 row' 0 (Bytes.length row);
  m.rows.(src) <- row';
  row'

(* One pass over the head column: a send is wanted when its label is, and
   [wanted] answers that per label id, decided once before the loop; only
   a wanted send's time word is read. *)
let send_links t ~components ~from_t ~to_t =
  let wanted =
    Bytes.init t.labels.len (fun l ->
        if List.exists (String.equal t.labels.data.(l).l1) components then '\001' else '\000')
  in
  let m = { rows = [||] } in
  let n = t.count in
  for ci = 0 to ((n + chunk_mask) lsr chunk_bits) - 1 do
    let c = t.pages.chunks.(ci) in
    let r = chunk_rows c in
    let base = ci lsl chunk_bits in
    for j = 0 to Int.min r (n - base) - 1 do
      let h = Bigarray.Array1.unsafe_get c j in
      if head_kind h = send_code && Bytes.unsafe_get wanted (h lsr label_shift) <> '\000' then begin
        let at = at_of t c r j (base + j) in
        if at >= from_t && at <= to_t then begin
          let src = head_a h and dst = head_b h in
          if src >= Array.length m.rows then grow_rows m src;
          let row = m.rows.(src) in
          let row = if dst < Bytes.length row then row else grow_row m src dst in
          Bytes.unsafe_set row dst '\001'
        end
      end
    done
  done;
  let links = ref [] in
  for src = Array.length m.rows - 1 downto 0 do
    let row = m.rows.(src) in
    for dst = Bytes.length row - 1 downto 0 do
      if Bytes.unsafe_get row dst <> '\000' then links := (src, dst) :: !links
    done
  done;
  !links

let time_of = function
  | Send { at; _ }
  | Deliver { at; _ }
  | Drop { at; _ }
  | Crash { at; _ }
  | Fd_view { at; _ }
  | Propose { at; _ }
  | Decide { at; _ }
  | Note { at; _ }
  | Span_begin { at; _ }
  | Span_end { at; _ } -> at

let pid_of = function
  | Send { src; _ } -> Some src
  | Deliver { dst; _ } -> Some dst
  | Drop _ -> None
  | Crash { pid; _ }
  | Fd_view { pid; _ }
  | Propose { pid; _ }
  | Decide { pid; _ }
  | Note { pid; _ }
  | Span_begin { pid; _ }
  | Span_end { pid; _ } -> Some pid

let pp_trusted ppf = function
  | None -> Format.fprintf ppf "-"
  | Some q -> Pid.pp ppf q

let pp_body ppf = function
  | Send { at; src; dst; msg; component; tag } ->
    Format.fprintf ppf "[%a] send m%d %a->%a %s/%s" Sim_time.pp at msg Pid.pp src Pid.pp dst
      component tag
  | Deliver { at; src; dst; msg; component; tag } ->
    Format.fprintf ppf "[%a] deliver m%d %a->%a %s/%s" Sim_time.pp at msg Pid.pp src Pid.pp dst
      component tag
  | Drop { at; src; dst; msg; component; tag; reason } ->
    Format.fprintf ppf "[%a] drop m%d %a->%a %s/%s (%s)" Sim_time.pp at msg Pid.pp src Pid.pp dst
      component tag reason
  | Crash { at; pid } -> Format.fprintf ppf "[%a] crash %a" Sim_time.pp at Pid.pp pid
  | Fd_view { at; pid; component; suspected; trusted } ->
    Format.fprintf ppf "[%a] %a %s: suspected=%a trusted=%a" Sim_time.pp at Pid.pp pid component
      Pid.pp_set suspected pp_trusted trusted
  | Propose { at; pid; value } ->
    Format.fprintf ppf "[%a] %a proposes %d" Sim_time.pp at Pid.pp pid value
  | Decide { at; pid; value; round } ->
    Format.fprintf ppf "[%a] %a decides %d (round %d)" Sim_time.pp at Pid.pp pid value round
  | Note { at; pid; tag; detail } ->
    Format.fprintf ppf "[%a] %a note %s: %s" Sim_time.pp at Pid.pp pid tag detail
  | Span_begin { at; pid; component; span; name } ->
    Format.fprintf ppf "[%a] %a span s%d begin %s/%s" Sim_time.pp at Pid.pp pid span component
      name
  | Span_end { at; pid; component; span; name } ->
    Format.fprintf ppf "[%a] %a span s%d end %s/%s" Sim_time.pp at Pid.pp pid span component name

let pp_event ppf e = Format.fprintf ppf "#%d @%d %a" e.seq e.lc pp_body e.body

let collect t kinds f =
  let acc = ref [] in
  iter_kinds t kinds (fun e -> match f e.body with Some x -> acc := x :: !acc | None -> ());
  List.rev !acc

let crashes t =
  collect t [ Kind.Crash ] (function Crash { at; pid } -> Some (pid, at) | _ -> None)

let decisions t =
  collect t [ Kind.Decide ] (function
    | Decide { at; pid; value; round } -> Some (pid, value, round, at)
    | _ -> None)

let proposals t =
  collect t [ Kind.Propose ] (function Propose { pid; value; _ } -> Some (pid, value) | _ -> None)

let fd_views ~component t =
  collect t [ Kind.Fd_view ] (function
    | Fd_view { at; pid; component = c; suspected; trusted } when String.equal c component ->
      Some (at, pid, suspected, trusted)
    | _ -> None)

let dump t oc =
  let ppf = Format.formatter_of_out_channel oc in
  iter t (fun e -> Format.fprintf ppf "%a@." pp_event e);
  Format.pp_print_flush ppf ()
