(** Canned experiment setups shared by the tests, the examples, the CLI and
    the benchmark harness.

    A scenario wires the full paper stack into one engine: partially
    synchronous links, a crash schedule, a failure detector, reliable
    broadcast, and (optionally) one consensus protocol per installed
    instance. *)

type net = {
  seed : int;
  gst : int;
  delta : int;  (** Post-GST delay bound. *)
  min_delay : int;
  pre_gst_max : int;  (** Worst pre-GST delay. *)
}

val default_net : net
(** seed 1, gst 0 (synchronous from the start), delta 8, delays in [1,8]. *)

val chaotic_net : ?seed:int -> gst:int -> unit -> net
(** Asynchronous-looking until [gst] (delays up to 20×delta), stable after. *)

val engine : ?net:net -> n:int -> unit -> Sim.Engine.t
(** Engine over partially synchronous links. *)

(** Which failure detector to install (all tuned to the same default
    periods, so costs are comparable). *)
type detector =
  | Heartbeat_p  (** All-to-all ◇P [6]. *)
  | Ring_s  (** Ring ◇S [15]. *)
  | Ring_w  (** Ring with propagation off: ◇W-grade. *)
  | Leader_s  (** Leader-based ◇S/Ω [16]. *)
  | Stable_omega  (** Stable leader election in the style of [2]. *)
  | Ec_from_leader  (** ◇C = {!Ecfd.Ec.of_leader_s} over Leader_s (free). *)
  | Ec_from_stable  (** ◇C over the stable Ω (same construction, free). *)
  | Ec_from_ring  (** ◇C = {!Ecfd.Ec.of_ring} over Ring_s (free). *)
  | Ec_from_omega_chu  (** ◇C over Ω obtained from Ring_s by {!Fd.Omega_from_s}. *)
  | Ec_from_heartbeat  (** ◇C = {!Ecfd.Ec.of_perfect} over the heartbeat ◇P. *)
  | Ec_from_perfect of Sim.Fault.t  (** ◇C over the P oracle (needs the schedule). *)
  | Scripted_stable of Sim.Pid.t  (** Theorem 3 adversary: stable, leader fixed. *)

val detector_name : detector -> string

val install_detector : Sim.Engine.t -> detector -> Fd.Fd_handle.t
(** Installs the detector (and whatever it is built on) and returns the
    top-level handle — the one whose component the {!Spec} checkers should
    look at. *)

type protocol =
  | Ct  (** Chandra–Toueg ◇S consensus. *)
  | Mr  (** Mostefaoui–Raynal-style Ω consensus. *)
  | Hr  (** Hurfin–Raynal-style fast ◇S consensus (2 steps/round). *)
  | Ec of Ecfd.Ec_consensus.params  (** The paper's ◇C consensus. *)

val protocol_name : protocol -> string

val protocol_component : protocol -> string
(** The trace component the protocol sends its own messages under. *)

type consensus_run = {
  engine : Sim.Engine.t;
  fd : Fd.Fd_handle.t;
  instance : Consensus.Instance.t;
  trace : Sim.Trace.t;
}

val run_consensus :
  ?net:net ->
  ?crashes:Sim.Fault.t ->
  ?proposals:(Sim.Pid.t -> Consensus.Value.t) ->
  ?propose_at:(Sim.Pid.t -> Sim.Sim_time.t) ->
  ?horizon:int ->
  n:int ->
  detector:detector ->
  protocol:protocol ->
  unit ->
  consensus_run
(** Build the full stack, apply the crash schedule, let every process that
    is still alive propose (default: process p proposes 100 + p at time 0),
    run to the horizon (default 5000), and return everything needed for
    checking.  Crashed-on-arrival processes do not propose. *)

val fd_run :
  ?net:net ->
  ?crashes:Sim.Fault.t ->
  ?horizon:int ->
  n:int ->
  detector:detector ->
  unit ->
  Fd.Fd_handle.t * Spec.Fd_props.run * Sim.Stats.t
(** Detector-only run, returning the handle, a spec run over its component,
    and the stats. *)
