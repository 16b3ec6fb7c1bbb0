(** Runtime handle of an installed failure detector.

    A distributed failure detector is a set of n modules, one per process
    (Section 2.1).  A handle is the client-side face of such a detector
    inside a simulation: algorithms {i query} the module attached to their
    process, and can {i subscribe} to output changes (the simulation
    counterpart of re-reading the detector while busy-waiting).

    Every change is also recorded in the engine trace as an [Fd_view] event,
    which is what the {!Spec} property checkers consume. *)

type t

val make : Sim.Engine.t -> component:string -> t
(** Fresh handle with one module per process, each starting at
    {!Fd_view.empty} (recorded in the trace at creation time). *)

val component : t -> string

val query : t -> Sim.Pid.t -> Fd_view.t
(** The view currently output by the module attached to the process. *)

val suspected : t -> Sim.Pid.t -> Sim.Pid.Set.t
(** [D.suspected_p]. *)

val trusted : t -> Sim.Pid.t -> Sim.Pid.t option
(** [D.trusted_p]. *)

val subscribe : t -> (Sim.Pid.t -> Fd_view.t -> unit) -> unit
(** Called on every output change of any module, with the owning process. *)

val set : t -> Sim.Pid.t -> Fd_view.t -> unit
(** For detector implementations: publish a new view.  No-op when the view
    is unchanged; otherwise traces and notifies subscribers.

    Suspicion spans: diffing the old and new view, every newly suspected
    process opens a ["suspicion"] span on the observer's track (before
    the [Fd_view] record) and every rescinded suspicion closes it (a
    span left open means the suspicion stood at the end of the run) — so
    suspicion episodes are complete for every detector built on this
    handle, whatever its internal mechanism.  In the trace, one change
    reads: the [Span_begin]s in ascending suspect order, then the
    [Span_end]s in ascending order, then the [Fd_view]; subscribers run
    after that.

    Invariant: p's row holds a span id for q exactly when q is in p's
    current suspected set, and that id is the open suspicion span p
    holds on q.  [set] reads the row only to close the spans of
    rescinded suspicions.

    Memory: a row has two states.  p's first suspicion opens one span per
    suspect, in ascending order at one instant, so their ids are
    consecutive; the row records that batch in three words (the
    suspected set, which is the view's own, the first id and the
    instant), and q's id is the first plus q's rank in the set.  The
    first later change of p's suspected set densifies the row into two
    n-int rows, the span id and its opening instant per peer, filled in
    one O(n) walk and kept from then on.  So the handle costs O(n) words,
    plus three per process that has suspected once and kept its view
    (a non-leader's first [Leader_s] view, for a whole steady run), plus
    2n per process whose suspicions changed since; no record is
    allocated per span.  The piggybacked ◇C → ◇P stack holds about 290
    live heap words per process after 300 ticks at n = 400 and at
    n = 800 ([ecfd.detector_state]).

    Cost: when the new suspected set is physically the old one (two
    empty sets always are), [set] compares [trusted] and nothing else:
    O(1), no allocation.  Otherwise it finds the fresh and the rescinded
    suspicions with two {!Sim.Pid.Set.iter_diff} walks, which skip every
    subtree the two sets share.  A view derived from the previous one by
    k adds and removes ([Leader_s] moving to its next candidate: one of
    each) costs O(k log n) plus the k spans it opens or closes; the
    first change after a batch also pays its O(n) densify, once.  A
    first suspicion (no row yet) costs one {!Sim.Pid.Set.cardinal} walk
    of the new set plus one bulk write of its [Span_begin]s
    ({!Sim.Engine.open_spans}), with no call per span.
    Unrelated sets cost at worst O(|old view| + |new view|).  An equal
    view that is not physically the old one costs its walks and records
    nothing. *)

val update : t -> Sim.Pid.t -> (Fd_view.t -> Fd_view.t) -> unit
(** [set] composed with a function of the current view. *)

val suspicion_span : t -> Sim.Pid.t -> Sim.Pid.t -> int option
(** [suspicion_span t p q]: the id of the suspicion span p holds open on
    q — [Some] exactly when p currently suspects q.  For tests of the
    span-row invariant: a batch row answers by walking its set. *)
