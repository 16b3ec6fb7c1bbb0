(** Uniform Consensus property checkers (Section 5.1), over a run's trace.

    - {b Termination}: every correct process eventually decides;
    - {b Uniform integrity}: every process decides at most once;
    - {b Uniform agreement}: no two processes (correct or faulty) decide
      differently;
    - {b Validity}: every decided value was proposed.

    Since every ◇C detector embeds a ◇S detector, the paper (following
    Guerraoui [10]) treats the uniform variants throughout; so do we. *)

type violation =
  | No_decision of Sim.Pid.t  (** A correct process never decided. *)
  | Multiple_decisions of Sim.Pid.t
  | Disagreement of { p : Sim.Pid.t; v : int; q : Sim.Pid.t; w : int }
  | Invalid_value of { p : Sim.Pid.t; v : int }

val pp_violation : Format.formatter -> violation -> unit

val termination : Sim.Trace.t -> n:int -> violation list
val uniform_integrity : Sim.Trace.t -> violation list
val uniform_agreement : Sim.Trace.t -> violation list
val validity : Sim.Trace.t -> violation list

val check_all : Sim.Trace.t -> n:int -> violation list
(** Empty = the run satisfies Uniform Consensus.  Reads the trace in one
    pass, like every checker here.  The violations come in the order
    termination, integrity, agreement, validity. *)

val check_safety : Sim.Trace.t -> violation list
(** Integrity + agreement + validity only — what must hold on {i every}
    run, even those too short (or too asynchronous) to terminate. *)

(** {1 Metrics} *)

val decision_round : Sim.Trace.t -> int option
(** Largest decision round among deciders (how long agreement took). *)

val first_decision_time : Sim.Trace.t -> Sim.Sim_time.t option
val last_decision_time : Sim.Trace.t -> Sim.Sim_time.t option
