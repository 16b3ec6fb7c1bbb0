(** The paper's ◇C Uniform Consensus algorithm (Section 5, Figs. 3 and 4).

    Asynchronous rounds, five phases each:

    - {b Phase 0}: a process whose detector trusts {i itself} becomes the
      round's coordinator and announces it; the others wait for a
      coordinator announcement (jumping forward if the announcement is for
      a later round — footnote 2).
    - {b Phase 1}: each process sends its timestamped estimate to {i its}
      coordinator; concurrently (Task 1 of Fig. 4) it answers every {i
      other} coordinator of the current or earlier rounds with a null
      estimate, so no coordinator can block.
    - {b Phase 2}: a coordinator gathers estimates until it has a majority
      {b and} has heard from every process it does not suspect (the
      extended wait that exploits ◇C's accuracy); with a majority of
      non-null estimates it proposes the one with the largest timestamp,
      otherwise it sends null propositions.
    - {b Phase 3}: each process waits for a proposition — adopting and
      ACKing any non-null one (from its own or another coordinator),
      passing on a null one from its own coordinator, or NACKing a
      coordinator it suspects.  Late non-null propositions are NACKed
      (Task 2 of Fig. 4).
    - {b Phase 4}: the proposing coordinator gathers ACK/NACKs until it has
      a majority and has heard from every non-suspected process; {b a
      majority of ACKs decides even in the presence of NACKs} — the paper's
      improvement over first-majority protocols.  The decision is
      R-broadcast and taken on R-delivery (Task 3 of Fig. 4).

    With a stable detector, consensus completes in a single round
    (vs Ω(n) rounds for rotating coordinators — Theorem 3, experiment E5),
    using Θ(n) messages (≈ 4(n-1): announcement, estimates, propositions,
    ACKs — experiment E4).

    Implementation note: the coordinator role is implemented as a
    round-indexed {i service} that runs concurrently with the process's own
    participant progress (a coordinator may still collect ACKs for round r
    while participating in r+1, and answers late estimates of past rounds
    with its recorded proposition).  This pipelining changes no per-round
    logic, so the paper's safety argument (Lemmas 1–2) applies unchanged,
    and it discharges the liveness obligations of Lemma 3's induction.

    Timestamps: rounds count from 1 (round 0 means none entered yet), and
    an estimate adopted from a proposition carries as its ts the round
    that adopted it; an initial estimate has ts 0.  So an adopted value
    outranks every estimate that was never updated, and Phase 2's
    largest-timestamp rule keeps a value that a majority may have locked,
    as the safety argument needs.

    Requires f < n/2 and a ◇C detector (both leader and suspicion outputs
    are used). *)

type wait_mode =
  | Extended
      (** The paper's rule: wait for a majority {i and} for every
          non-suspected process; decide on a majority of ACKs. *)
  | Strict_majority
      (** Ablation (experiment E6): look only at the first majority of
          replies, like Chandra–Toueg — one NACK then blocks the round. *)

type params = {
  wait_mode : wait_mode;
  merge_phase01 : bool;
      (** Section 5.4's trade-off variant: merge Phases 0 and 1 — no
          coordinator announcements; every process sends its estimate
          straight to its leader and null estimates to everyone else.
          Four phases, but Ω(n²) messages per round (experiment E7). *)
  max_rounds : int;
      (** Safety valve against detectors violating ◇C (a process could
          otherwise spin through rounds within one simulated instant). *)
}

val default_params : params
(** Extended wait, unmerged phases, 100000 rounds. *)

val component : string

val install :
  ?component:string ->
  ?transport:Broadcast.Reliable_broadcast.transport ->
  Sim.Engine.t ->
  fd:Fd.Fd_handle.t ->
  rb:Broadcast.Reliable_broadcast.t ->
  params ->
  Consensus.Instance.t
(** [transport] (default [`Engine]) routes the protocol's own messages: pass
    [`Stubborn ch] to run over fair-lossy links — combine with an
    [`Stubborn]-transported [rb] and a periodic (hence loss-tolerant)
    detector to run the whole stack on a lossy network (see the tests). *)
