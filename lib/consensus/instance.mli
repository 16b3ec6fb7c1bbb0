(** The face of an installed consensus protocol instance, and the round
    bookkeeping every protocol shares.

    Every protocol ({!Ecfd.Ec_consensus}, {!Ct_consensus}, {!Mr_consensus},
    {!Hr_consensus}) installs one module per process and returns {!t}.
    Proposals and decisions are also recorded in the engine trace
    ([Propose] / [Decide] events), which is what {!Spec.Consensus_props}
    checks.

    Rounds count from 1, as in the paper's Figs. 3–4: round 0 means "no
    round entered yet".  The round a process stores, the [round] of its
    payloads, the [.rN] suffix of its message tags and the round of its
    [Decide] are one number, so no send or decision converts. *)

type decision = {
  value : Value.t;
  round : int;  (** Round in which the decided value was locked. *)
  at : Sim.Sim_time.t;
}

type t = {
  phases_per_round : int;
      (** The protocol's static communication-phase count, as the paper
          counts it in Section 5.4 (◇C: 5, or 4 with Phases 0 and 1
          merged; Chandra–Toueg: 4; MR: 3; HR: 2). *)
  propose : Sim.Pid.t -> Value.t -> unit;
  decision : Sim.Pid.t -> decision option;
}

(** {1 Shared bookkeeping}

    A protocol keeps its own payloads, phases and waits, and its
    per-process state (round, estimate, phase, decision).  What every
    protocol does the same way lives here, once: the proposal guard, the
    decision record, the deferred round entry, the round span and counter,
    and the per-round tables.  Only [entry] and [first_quorum] run on a
    message's path, and they allocate nothing a local copy would not. *)

type book
(** One per installed instance: which processes have proposed, and the
    open round span of each process. *)

val book : Sim.Engine.t -> component:string -> who:string -> book
(** [who] names the protocol module in error messages
    (["Ct_consensus"]); spans are opened under [component]. *)

val propose : book -> Sim.Pid.t -> Value.t -> unit
(** The common first half of [propose]: rejects an invalid value and a
    second proposal by the same process ([Invalid_argument "<who>.propose:
    ..."]), then records the [Propose] event.  The caller then starts its
    first round unless the process already left [Idle] (a late proposer
    whose decision was R-delivered first). *)

val decide : book -> Sim.Pid.t -> round:int -> Value.t -> decision
(** Closes the process's open round span, records the [Decide] event and
    returns the decision to store.  The caller decides once: it calls this
    only while its phase is not halted, and halts.  A halted phase covers
    both an earlier decision and the [max_rounds] valve. *)

val defer : book -> Sim.Pid.t -> advancing:(Sim.Pid.t -> bool) -> (Sim.Pid.t -> unit) -> unit
(** [defer b p ~advancing enter] runs [enter p] one engine event later
    (a zero-delay timer), if [advancing p] still holds then.  The caller
    sets its [Advancing] phase first; anything that moves the process on
    in the meantime (a decision, a catch-up jump) cancels the entry. *)

val enter :
  book -> counter:Obs.Registry.counter -> max_rounds:int -> Sim.Pid.t -> int -> bool
(** [enter b ~counter ~max_rounds p r]: closes [p]'s previous round span;
    then, if [r <= max_rounds], counts the round on [counter] (registered
    by the caller under a literal name), opens a new "round" span and
    returns [true].  [false] means the valve fired and the caller halts:
    a process enters at most [max_rounds] rounds. *)

val entry : (int, 'a) Hashtbl.t -> int -> (unit -> 'a) -> 'a
(** [entry table r fresh]: the entry of round [r], created by [fresh]
    and added on first use. *)

val first_quorum : int -> 'a list -> 'a list
(** [first_quorum q rev_arrivals]: the first [q] arrivals, oldest first,
    of a list kept newest first.  Quorum waits look at these and nothing
    else. *)
