(** Run traces, causally stamped.

    The engine and the protocol components append events to a trace as the
    simulation advances — components through {!record}, the engine through
    the scalar writers ({!record_send} and friends), which take the event's
    fields as ints and an interned {!label} and build no [body]; the {!Spec} library evaluates the paper's
    completeness / accuracy / leader-election / consensus properties over
    the finished trace, and {!Trace_export} turns it into Chrome
    trace-event JSON or JSONL for offline tooling ([ecfd-trace]).

    Every recorded event is stamped with

    - a {b sequence number} [seq]: 0-based, dense, strictly increasing in
      order of occurrence — the event's identity within the run;
    - a {b Lamport clock} [lc], maintained here: each event at a process
      ticks that process's clock; a [Deliver] joins the receiver's clock
      with the matching [Send]'s stamp, so [lc] orders events consistently
      with happens-before (clock condition: [e -> e'] implies
      [lc e < lc e'] for process events).

    [Send]/[Deliver]/[Drop] carry a shared {b message id} [msg] (allocated
    by the engine), linking a delivery or a drop back to its send — the
    edge the ancestry query walks.  [Drop] is stamped with the send's
    clock and ticks nobody: a dropped message is observed by no process.
    The engine keeps each in-flight message's send stamp itself, in its
    event slab, and passes it back as [~sent_lc]; {!record} keeps its own
    msg → stamp table for hand-built traces.

    [Span_begin]/[Span_end] bracket protocol phases (consensus rounds,
    leadership epochs, suspicion episodes) under an engine-allocated span
    id; see {!Engine.begin_span}.

    {2 Storage}

    A trace does not keep [event] values.  Each event is packed into three
    unboxed [int] words — a head word (kind, pids and label), a time word
    ([lc] and [at], 31 bits each) and msg / span / value — in chunks of
    an [int] Bigarray, which the GC neither scans nor moves; [seq] is the
    event's index.  A chunk stores its events in three columns, one per
    word, so a pass that filters on kind ({!iter_kinds}, {!iter_sends},
    {!send_links}) reads the head column and then only the words of the
    events it keeps.  Strings are interned per trace: an event's
    (component, tag, reason) or (component, name) is one label id in the
    head word.  The rare payloads — a view's suspected set, a note's
    detail, a decision's value and round — sit in small side arrays.  That
    is 24 bytes per event, against about 90 for a boxed event.  An event
    whose [at] or [lc] is negative or at least 2{^31} (hand-built traces
    only; no engine run here comes near) marks its time word and keeps
    both values in a per-trace escape table ({!escaped_events}).

    Chunk 0 starts at 256 events and doubles up to the full 16 384
    (384 KiB); every later chunk is full-size.  Once the last trace
    created on a domain has been collected, the next {!create} there
    takes over its full-size chunks ({!Exec.Spare}) and writes them in
    place of new ones, so a sweep of runs stops faulting in fresh pages
    for its traces.  Those chunks are Bigarrays and hold no OCaml value,
    so the spare cannot keep its trace alive.  A word at or above
    {!length} is never read, so what a trace records and reads back does
    not depend on where its chunks came from.  Chunk 0, the labels, the
    side arrays and the escape table are always the trace's own.

    {b Representable ranges.}  Every pid ([src], [dst], [pid], a trusted
    pid) must lie in [0 .. max_pid]; a trace holds at most [max_labels]
    distinct labels.  [at], [lc], [msg], [span], [value] and [round] are
    stored whole, negative values included ([at] and [lc] through the
    escape table when they do not fit in 31 bits).  {!record} raises
    [Invalid_argument] on anything outside these ranges — it never wraps.

    {b Which readers build events.}  {!iter}, {!to_seq}, {!events} and
    {!dump} build a fresh [event] per event read: equal to the one
    recorded, not physically the same.  {!iter_kinds}, {!crashes},
    {!decisions}, {!proposals} and {!fd_views} read each event's kind word
    and build only the events of the kinds they asked for.  {!iter_sends}
    and {!send_links} build nothing. *)

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
    }  (** A failure-detector module's output changed. *)
  | Propose of { at : Sim_time.t; pid : Pid.t; value : int }
  | Decide of { at : Sim_time.t; pid : Pid.t; value : int; round : int }
  | Note of { at : Sim_time.t; pid : Pid.t; tag : string; detail : string }
  | Span_begin of { at : Sim_time.t; pid : Pid.t; component : string; span : int; name : string }
  | Span_end of { at : Sim_time.t; pid : Pid.t; component : string; span : int; name : string }

type event = { seq : int; lc : int; body : body }

module Kind : sig
  type t = Send | Deliver | Drop | Crash | Fd_view | Propose | Decide | Note | Span_begin | Span_end
end

type t

val max_pid : int
(** The largest pid a trace can hold: [2{^21} - 2]. *)

val max_labels : int
(** The most distinct labels one trace can hold, the empty label every
    trace starts with included: [2{^17}]. *)

val create : unit -> t
(** An empty trace.  Its chunks beyond the first may be those of a
    collected trace created earlier on the same domain (see "Storage"
    above); what it records and reads back is the same either way. *)

val recycled_chunks : t -> int
(** How many full-size chunks {!create} took over from a collected
    predecessor: [0] for a trace built from fresh memory.  It depends on
    when the GC last ran, so it is a fact about memory, not about the
    run. *)

val storage_bytes : t -> int
(** Bytes of chunk storage the trace uses: 24 per event it has room for.
    Apart from chunk 0's growth from 256 events and the unused rows of its
    last chunk, that is 24 per event recorded. *)

val escaped_events : t -> int
(** How many events keep their [at] and [lc] in the escape table: [0]
    unless an event's time or stamp reaches 2{^31} or is negative,
    which no engine run of this repository comes near. *)

val record : t -> body -> unit
(** Stamp ([seq], [lc]) and append.  The Lamport bookkeeping lives here,
    so hand-built traces (tests) get consistent stamps too: [record]
    keeps the stamp of every [Send] it records under the message id, for
    the matching [Deliver] or [Drop] (stamp 0 if there was none).  It is
    a thin wrapper over the writers below; a trace written through them
    and the same events re-recorded through [record] carry identical
    stamps.
    @raise Invalid_argument if a pid or the label count is out of range
    (see "Representable ranges" above); the trace is then unchanged. *)

(** {1 Scalar writers}

    The engine records its own events without building a [body]: it
    interns each event's strings once into a {!label}, and carries a
    message's send stamp itself from {!record_send} to the
    {!record_deliver} or {!record_drop} of the same message.  Each writer
    appends exactly the event {!record} would for the corresponding
    [body], and raises as it does on an out-of-range pid.
    [record_send] and [record_deliver] allocate nothing once the label is
    interned, apart from the occasional new chunk. *)

type label = private int
(** An interned string triple of one trace: (component, tag, reason) for
    messages ([""] reason for sends and deliveries) and (component, name,
    [""]) for spans.  Meaningful only to the trace that interned it. *)

val label : t -> string -> string -> string -> label
(** [label t a b c] interns the triple.  Repeated calls with the same
    physical strings hit a small cache and do not hash.
    @raise Invalid_argument past [max_labels] distinct triples. *)

val record_send : t -> at:Sim_time.t -> src:Pid.t -> dst:Pid.t -> msg:int -> label -> int
(** Append [Send]: tick [src]'s clock and return the new stamp, the
    [sent_lc] of the message's later delivery or drop. *)

val record_deliver :
  t -> at:Sim_time.t -> src:Pid.t -> dst:Pid.t -> msg:int -> sent_lc:int -> label -> unit
(** Append [Deliver]: [dst]'s clock becomes [max clock sent_lc + 1]. *)

val record_drop :
  t -> at:Sim_time.t -> src:Pid.t -> dst:Pid.t -> msg:int -> sent_lc:int -> label -> unit
(** Append [Drop], stamped [sent_lc]; no clock ticks.  The label carries
    the reason. *)

val record_span_begin : t -> at:Sim_time.t -> pid:Pid.t -> span:int -> label -> unit
val record_span_end : t -> at:Sim_time.t -> pid:Pid.t -> span:int -> label -> unit
(** Append [Span_begin] / [Span_end] at [pid], ticking its clock; the
    label is (component, name, [""]). *)

val record_span_begins :
  t -> at:Sim_time.t -> pid:Pid.t -> first:int -> count:int -> label -> unit
(** [record_span_begins t ~at ~pid ~first ~count l] appends exactly the
    [count] events of [record_span_begin t ~at ~pid ~span l] for [span]
    = [first], [first + 1], ..., [first + count - 1]: same seqs, same
    stamps (c₀ + 1 to c₀ + count, where c₀ is [pid]'s clock before the
    call), same exports.  It checks [pid] once and, when [at] and
    c₀ + [count] both lie in [0, 2{^31}) — always, in an engine run —
    fills the rows into the chunk columns one slice per chunk and
    allocates nothing but the occasional new chunk.  Otherwise it falls
    back to one [record_span_begin] per row, so escaped times go to the
    escape table as they would one by one.  [count = 0] records nothing.
    @raise Invalid_argument if [pid] is out of range or [count] is
    negative; the trace is then unchanged. *)

val length : t -> int

(** {1 Reading}

    [iter]/[to_seq] walk the events in order of occurrence, building
    each one as it is read; [events] materialises a fresh list and is
    kept for call sites that genuinely need one.  A reader that wants
    only a few kinds should use {!iter_kinds} or {!iter_sends}. *)

val iter : t -> (event -> unit) -> unit
val to_seq : t -> event Seq.t

val events : t -> event list
(** In order of occurrence.  Allocates a fresh list on every call —
    prefer {!iter} / {!to_seq} on hot paths. *)

val iter_kinds : t -> Kind.t list -> (event -> unit) -> unit
(** [iter_kinds t kinds f] is [iter t f] restricted to the events whose
    kind is in [kinds]; the other events are skipped on their kind word
    and never built. *)

val iter_sends :
  t ->
  (at:Sim_time.t -> src:Pid.t -> dst:Pid.t -> msg:int -> component:string -> tag:string -> unit) ->
  unit
(** The fields of every [Send], in order, with no allocation: the strings
    are the trace's interned copies. *)

val send_links :
  t -> components:string list -> from_t:Sim_time.t -> to_t:Sim_time.t -> (Pid.t * Pid.t) list
(** The distinct [(src, dst)] of the [Send]s whose component is one of
    [components] and whose [at] lies in [\[from_t, to_t\]], sorted by
    [src], then [dst].  One pass over the packed words that builds no
    event and calls no closure per event: the component test is one byte
    per label id, decided before the pass, and each pair is a byte in a
    per-source row, so a send costs a few loads and compares.  Memory is
    one row per source of a wanted send, as long as its largest
    destination (rounded up as the row doubles). *)

val time_of : body -> Sim_time.t
val pid_of : body -> Pid.t option
(** The process an event happens at: [src] of a [Send], [dst] of a
    [Deliver], [pid] otherwise; [None] for [Drop] (a drop happens on the
    link, at no process). *)

val pp_body : Format.formatter -> body -> unit
val pp_event : Format.formatter -> event -> unit
(** [pp_body] prefixed with the [#seq @lc] stamp. *)

val crashes : t -> (Pid.t * Sim_time.t) list
(** All crash events, in order. *)

val decisions : t -> (Pid.t * int * int * Sim_time.t) list
(** [(pid, value, round, time)] for every decide event, in order. *)

val proposals : t -> (Pid.t * int) list

val fd_views : component:string -> t -> (Sim_time.t * Pid.t * Pid.Set.t * Pid.t option) list
(** View-change events of one failure-detector component, in order. *)

val dump : t -> out_channel -> unit
(** Write the whole trace, one pretty-printed event per line — the format
    of {!pp_event} — for offline inspection or diffing two runs. *)
