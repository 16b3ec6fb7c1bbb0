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

    Invariant: p's suspicion span on q is open exactly when q is in p's
    current suspected set.  [set] uses the open spans as its membership
    test for the old view, so it never searches the old set.

    Cost: when the new suspected set is physically the old one (two
    empty sets always are), [set] compares [trusted] and nothing else:
    O(1), no allocation.  Otherwise it walks the new set once, O(|new
    view|), and only when a suspicion was rescinded walks the old set
    too, O(|old view|).  An unchanged view costs its walk and records
    nothing. *)

val update : t -> Sim.Pid.t -> (Fd_view.t -> Fd_view.t) -> unit
(** [set] composed with a function of the current view. *)
