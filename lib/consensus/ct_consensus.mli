(** The Chandra–Toueg ◇S consensus algorithm [6] (rotating coordinator).

    The baseline the paper measures itself against in Section 5.4.  Rounds
    are asynchronous and count from 1; the coordinator of round r is
    p_{((r-1) mod n)+1} — the {i rotating coordinator} paradigm.  Each round has four phases:

    + every process sends its (estimate, timestamp) to the coordinator;
    + the coordinator gathers ⌈(n+1)/2⌉ estimates and proposes one with the
      largest timestamp;
    + every process waits for the proposal — adopting and ACKing it — or
      escapes by suspecting the coordinator, NACKing it;
    + the coordinator gathers the {b first} ⌈(n+1)/2⌉ replies and decides
      (R-broadcasting the value) only if {b all} of them are ACKs.

    Note the two behaviours the ◇C paper improves on: the coordinator takes
    Ω(n) rounds to be a never-suspected process after stabilisation
    (Theorem 3; experiment E5), and a single NACK among the first majority
    of replies blocks the round (experiment E6).

    Requires a majority of correct processes and a ◇S-grade detector.
    Messages per round: 3n (n estimates + n proposals + n replies),
    counting the self-addressed ones the paper also counts; our simulator
    does not put self-sends on the network, so the measured figure is
    3(n-1) (experiment E4 reports both conventions). *)

val component : string

val install :
  ?component:string ->
  ?max_rounds:int ->
  Sim.Engine.t ->
  fd:Fd.Fd_handle.t ->
  rb:Broadcast.Reliable_broadcast.t ->
  unit ->
  Instance.t
(** One module per process.  Every process must eventually [propose] or the
    waits of rounds it coordinates cannot fill.  [max_rounds] (default
    100000) halts a process that would enter round [max_rounds + 1]
    undecided — a safety valve against detectors that violate ◇S (a
    process can otherwise burn through infinitely many rounds at a single
    simulated instant). *)
