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

(* Storage (see trace.mli): event [seq] occupies the four words at
   [(seq land chunk_mask) * stride] of chunk [seq lsr chunk_bits]:

     +0  head   kind (4 bits) | a (21) | b (21) | label (17), low to high
     +1  at
     +2  lc
     +3  x      msg, span, value, or an index into a side vector

   [a]/[b] are the two pids (src/dst, or pid/trusted with [no_pid] for
   [None]).  A label interns the event's strings as one triple: (component,
   tag, reason) for messages, (component, name) for spans, (component) for
   views and (tag) for notes.  The rare payloads live in side vectors that
   [x] indexes: a view's suspected set, a note's detail, a decision's
   (value, round).  The chunks are Bigarrays, so the GC neither scans nor
   moves them; only the labels and side payloads are heap values. *)
type chunk = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let stride = 4
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
    let data = Array.make (Stdlib.max 8 (2 * v.len)) x in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1;
  v.len - 1

type label = { l1 : string; l2 : string; l3 : string }

module Label_tbl = Hashtbl.Make (struct
  type t = label

  let equal a b = String.equal a.l1 b.l1 && String.equal a.l2 b.l2 && String.equal a.l3 b.l3
  let hash = Hashtbl.hash
end)

(* A direct-mapped cache in front of [label_ids]: callers pass the same
   physical strings over and over (component and tag constants), so a
   physical-equality hit skips hashing.  Dynamic strings (round-tagged
   [estimate.r%d] tags) miss it and cost one table lookup. *)
let cache_size = 16

(* [clocks] is the per-process Lamport clock, grown on demand — the trace
   does not know [n], and hand-built test traces should not have to
   declare it.  [send_lc] maps an in-flight message id to its send stamp;
   the entry is consumed by the matching [Deliver] or [Drop], so the
   table's residency is bounded by in-flight messages, not run length. *)
type t = {
  mutable chunks : chunk array;  (* the first [n_chunks] are in use *)
  mutable n_chunks : int;
  mutable count : int;
  labels : label vec;
  label_ids : int Label_tbl.t;
  cache_keys : label array;
  cache_ids : int array;
  sets : Pid.Set.t vec;
  texts : string vec;
  ints : int vec;
  mutable clocks : int array;
  send_lc : (int, int) Hashtbl.t;
}

let no_label = { l1 = ""; l2 = ""; l3 = "" }

(* Label 0 is the empty triple, the label of the kinds that carry no
   string ([body_at] reads it unconditionally) and of every cache slot
   until it is first filled. *)
let create () =
  let t =
    {
      chunks = [||];
      n_chunks = 0;
      count = 0;
      labels = vec ();
      label_ids = Label_tbl.create 16;
      cache_keys = Array.make cache_size no_label;
      cache_ids = Array.make cache_size 0;
      sets = vec ();
      texts = vec ();
      ints = vec ();
      clocks = [||];
      send_lc = Hashtbl.create 64;
    }
  in
  Label_tbl.add t.label_ids no_label (push t.labels no_label);
  t

let intern t l1 l2 l3 =
  let slot =
    (String.length l1 + (3 * String.length l2) + (7 * String.length l3)) land (cache_size - 1)
  in
  let k = t.cache_keys.(slot) in
  if k.l1 == l1 && k.l2 == l2 && k.l3 == l3 then t.cache_ids.(slot)
  else begin
    let key = { l1; l2; l3 } in
    let id =
      match Label_tbl.find_opt t.label_ids key with
      | Some id -> id
      | None ->
        if t.labels.len >= max_labels then
          invalid_arg (Printf.sprintf "Trace.record: more than %d distinct labels" max_labels);
        let id = push t.labels key in
        Label_tbl.add t.label_ids key id;
        id
    in
    t.cache_keys.(slot) <- key;
    t.cache_ids.(slot) <- id;
    id
  end

let check_pid what p =
  if p < 0 || p > max_pid then
    invalid_arg (Printf.sprintf "Trace.record: %s %d outside [0, %d]" what p max_pid)

let head kind ~a ~b label =
  Kind.code kind lor (a lsl 4) lor (b lsl (4 + pid_bits)) lor (label lsl label_shift)

let clock t pid = if pid < Array.length t.clocks then t.clocks.(pid) else 0

let set_clock t pid v =
  let capacity = Array.length t.clocks in
  if pid >= capacity then begin
    let capacity' = Stdlib.max 8 (Stdlib.max (pid + 1) (2 * capacity)) in
    let clocks' = Array.make capacity' 0 in
    Array.blit t.clocks 0 clocks' 0 capacity;
    t.clocks <- clocks'
  end;
  t.clocks.(pid) <- v

let tick t pid =
  let c = clock t pid + 1 in
  set_clock t pid c;
  c

(* The clock rules (see trace.mli): Send ticks the sender and publishes
   its stamp under the message id; Deliver joins the receiver's clock with
   that stamp; Drop adopts the stamp without ticking anyone; every other
   event ticks the process it happens at. *)
let stamp t = function
  | Send { src; msg; _ } ->
    let c = tick t src in
    if msg >= 0 then Hashtbl.replace t.send_lc msg c;
    c
  | Deliver { dst; msg; _ } ->
    let sent =
      match Hashtbl.find_opt t.send_lc msg with
      | Some c ->
        Hashtbl.remove t.send_lc msg;
        c
      | None -> 0
    in
    let c = Stdlib.max (clock t dst) sent + 1 in
    set_clock t dst c;
    c
  | Drop { msg; _ } -> (
    match Hashtbl.find_opt t.send_lc msg with
    | Some c ->
      Hashtbl.remove t.send_lc msg;
      c
    | None -> 0)
  | Crash { pid; _ }
  | Fd_view { pid; _ }
  | Propose { pid; _ }
  | Decide { pid; _ }
  | Note { pid; _ }
  | Span_begin { pid; _ }
  | Span_end { pid; _ } -> tick t pid

let new_chunk events : chunk =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout (events * stride)

(* The chunk event [i] is written to.  Chunk 0 starts at
   [first_chunk_events] and doubles up to [chunk_events], so a short
   trace stays small; every later chunk is allocated full-size. *)
let chunk_for_write t i =
  let ci = i lsr chunk_bits in
  if ci < t.n_chunks then begin
    let c = t.chunks.(ci) in
    let capacity = Bigarray.Array1.dim c / stride in
    if i land chunk_mask < capacity then c
    else begin
      let c' = new_chunk (Stdlib.min chunk_events (2 * capacity)) in
      Bigarray.Array1.blit c (Bigarray.Array1.sub c' 0 (Bigarray.Array1.dim c));
      t.chunks.(ci) <- c';
      c'
    end
  end
  else begin
    let c = new_chunk (if ci = 0 then first_chunk_events else chunk_events) in
    if ci = Array.length t.chunks then begin
      let chunks = Array.make (Stdlib.max 8 (2 * ci)) c in
      Array.blit t.chunks 0 chunks 0 ci;
      t.chunks <- chunks
    end;
    t.chunks.(ci) <- c;
    t.n_chunks <- ci + 1;
    c
  end

(* Stamp and write one event.  Every range check has passed by now, so a
   rejected event leaves the trace as it was. *)
let append t body h ~at x =
  let lc = stamp t body in
  let i = t.count in
  let c = chunk_for_write t i in
  let o = (i land chunk_mask) * stride in
  Bigarray.Array1.unsafe_set c o h;
  Bigarray.Array1.unsafe_set c (o + 1) at;
  Bigarray.Array1.unsafe_set c (o + 2) lc;
  Bigarray.Array1.unsafe_set c (o + 3) x;
  t.count <- i + 1

let message kind ~src ~dst label =
  check_pid "src" src;
  check_pid "dst" dst;
  head kind ~a:src ~b:dst label

let at_pid kind pid ~b label =
  check_pid "pid" pid;
  head kind ~a:pid ~b label

let record t body =
  match body with
  | Send { at; src; dst; msg; component; tag } ->
    append t body (message Kind.Send ~src ~dst (intern t component tag "")) ~at msg
  | Deliver { at; src; dst; msg; component; tag } ->
    append t body (message Kind.Deliver ~src ~dst (intern t component tag "")) ~at msg
  | Drop { at; src; dst; msg; component; tag; reason } ->
    append t body (message Kind.Drop ~src ~dst (intern t component tag reason)) ~at msg
  | Crash { at; pid } -> append t body (at_pid Kind.Crash pid ~b:0 0) ~at 0
  | Fd_view { at; pid; component; suspected; trusted } ->
    let b =
      match trusted with
      | None -> no_pid
      | Some q ->
        check_pid "trusted" q;
        q
    in
    let h = at_pid Kind.Fd_view pid ~b (intern t component "" "") in
    append t body h ~at (push t.sets suspected)
  | Propose { at; pid; value } -> append t body (at_pid Kind.Propose pid ~b:0 0) ~at value
  | Decide { at; pid; value; round } ->
    let h = at_pid Kind.Decide pid ~b:0 0 in
    let i = push t.ints value in
    ignore (push t.ints round : int);
    append t body h ~at i
  | Note { at; pid; tag; detail } ->
    let h = at_pid Kind.Note pid ~b:0 (intern t tag "" "") in
    append t body h ~at (push t.texts detail)
  | Span_begin { at; pid; component; span; name } ->
    append t body (at_pid Kind.Span_begin pid ~b:0 (intern t component name "")) ~at span
  | Span_end { at; pid; component; span; name } ->
    append t body (at_pid Kind.Span_end pid ~b:0 (intern t component name "")) ~at span

let length t = t.count

let head_kind h = h land 15
let head_a h = (h lsr 4) land pid_mask
let head_b h = (h lsr (4 + pid_bits)) land pid_mask

let body_at t (c : chunk) o =
  let h = Bigarray.Array1.unsafe_get c o in
  let at = Bigarray.Array1.unsafe_get c (o + 1) in
  let x = Bigarray.Array1.unsafe_get c (o + 3) in
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

let event_at t c o i = { seq = i; lc = Bigarray.Array1.unsafe_get c (o + 2); body = body_at t c o }

(* [f chunk offset seq] for every event recorded before the call. *)
let walk t f =
  let n = t.count in
  let ci = ref 0 in
  while !ci lsl chunk_bits < n do
    let c = t.chunks.(!ci) in
    let base = !ci lsl chunk_bits in
    for j = 0 to Stdlib.min chunk_events (n - base) - 1 do
      f c (j * stride) (base + j)
    done;
    incr ci
  done

let iter t f = walk t (fun c o i -> f (event_at t c o i))

let get t i =
  let c = t.chunks.(i lsr chunk_bits) in
  event_at t c ((i land chunk_mask) * stride) i

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
  walk t (fun c o i ->
      if mask land (1 lsl head_kind (Bigarray.Array1.unsafe_get c o)) <> 0 then
        f (event_at t c o i))

let send_code = Kind.code Kind.Send

let iter_sends t f =
  walk t (fun c o _ ->
      let h = Bigarray.Array1.unsafe_get c o in
      if head_kind h = send_code then begin
        let l = t.labels.data.(h lsr label_shift) in
        f ~at:(Bigarray.Array1.unsafe_get c (o + 1)) ~src:(head_a h) ~dst:(head_b h)
          ~msg:(Bigarray.Array1.unsafe_get c (o + 3)) ~component:l.l1 ~tag:l.l2
      end)

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
