(** The Eventually Consistent failure detector class ◇C (Definition 1) and
    its constructions from other classes (Section 3).

    A ◇C detector provides every process with a suspected set satisfying the
    ◇S properties (strong completeness, eventual weak accuracy), a trusted
    process satisfying the Ω property (eventually every correct process
    permanently trusts the same correct process), and a coherence clause:
    there is a time after which the trusted process is not suspected.

    Every construction here is a {i local} transformation: it derives its
    views synchronously from an underlying detector's views, exchanging
    {b no extra messages} — which is exactly the paper's point for the
    P / ◇P / leader-◇S sources.  (The expensive route, ◇S → Ω by message
    exchange, lives in {!Fd.Omega_from_s}; experiment E8 contrasts the two.)

    The [conforms] helper checks Definition 1's {i static} sanity conditions
    on a single view; the temporal properties are checked over traces by
    {!Spec.Fd_props}. *)

val of_omega : Fd.Fd_handle.t -> engine:Sim.Engine.t -> Fd.Fd_handle.t
(** Section 3, first construction: given Ω, output the same trusted process
    and suspect everybody else (except oneself).  Trivial and free, but with
    the poorest possible accuracy. *)

val of_perfect : Fd.Fd_handle.t -> engine:Sim.Engine.t -> Fd.Fd_handle.t
(** Section 3, second construction: given P (or ◇P), pass the suspected set
    through and trust the {b first} process, in the total order p_1 ... p_n,
    not in it. *)

val of_ring : ?initial_candidate:Sim.Pid.t -> Fd.Fd_handle.t -> engine:Sim.Engine.t -> Fd.Fd_handle.t
(** Section 3, last construction: on a ring ◇S detector ([15],
    {!Fd.Ring_s}), trust the first non-suspected process starting from the
    initial leader candidate and following the ring order.  The ring
    algorithm guarantees this converges to the same correct process
    everywhere, so the result is ◇C at no additional message cost. *)

val of_leader_s : Fd.Fd_handle.t -> engine:Sim.Engine.t -> Fd.Fd_handle.t
(** Section 3/4 construction over the leader-based ◇S of [16]
    ({!Fd.Leader_s}), whose views already carry both a ◇S-grade suspected
    set and an Ω-grade trusted process: re-publish them under a ◇C
    component name.  n-1 messages per period, all paid by the underlying
    detector. *)

val conforms : n:int -> Sim.Pid.t -> Fd.Fd_view.t -> bool
(** Static view sanity: a trusted process exists, is a valid id, and the
    process does not suspect itself.  (Definition 1's temporal clauses are
    trace properties, not view properties.) *)

val component_of_leader_s : string
