(** A fast rotating-coordinator ◇S consensus in the style of Hurfin–Raynal
    [12] ("A simple and fast asynchronous consensus protocol based on a
    weak failure detector", Distributed Computing 12(4), 1999) — the third
    protocol family the paper's Section 1.2 surveys.

    Like [12], rounds have only {b two} communication steps, trading
    messages for latency (the converse of Chandra–Toueg's trade):

    + the round's rotating coordinator broadcasts its current estimate;
    + every process broadcasts a {i vote}: the coordinator's value if it
      arrived, ⊥ if the coordinator is suspected first; a process that
      gathers a quorum (n-f) of votes {b all} carrying the value decides
      it, adopts the value if {b any} vote carries it, and moves on.

    Safety is quorum intersection (only the coordinator's single value can
    be voted, two quorums share a process, a deciding quorum forces every
    later quorum to adopt); liveness is the usual rotating-coordinator
    argument, so Theorem 3 applies to it too: up to n rounds after
    stabilisation (experiment E5), versus 1 for the paper's ◇C algorithm.

    This is a documented adaptation, not a line-by-line reproduction of
    [12] (DESIGN.md §4): it keeps the protocol's signature properties —
    2 steps/round, rotating coordinator, ◇S suspicion escape, quorum
    voting with n-f waits.

    The rotating coordinator of round r (rounds count from 1) is
    p_{((r-1) mod n)+1}.

    Cost per round: (n-1) + n(n-1) messages ≈ Θ(n²); 2 phases.
    The fault bound is fixed at f = ⌈n/2⌉-1, so quorums are majorities
    (n-f processes) and f < n/2 holds for every n. *)

val component : string

val install :
  ?component:string ->
  ?max_rounds:int ->
  Sim.Engine.t ->
  fd:Fd.Fd_handle.t ->
  rb:Broadcast.Reliable_broadcast.t ->
  unit ->
  Instance.t
