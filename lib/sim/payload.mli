(** Message payloads.

    The payload type is an extensible variant: each protocol component
    (failure detector, broadcast, consensus, ...) declares its own
    constructors and the engine routes envelopes by component name, so
    independent protocol stacks compose inside one simulation without a
    global message type. *)

type t = ..

type t += Blank  (** A contentless payload, handy in tests. *)

type envelope = {
  src : Pid.t;
  dst : Pid.t;
  component : string;  (** Routing key: which component's handler receives it. *)
  tag : string;        (** Human-readable message kind, for traces and stats. *)
  payload : t;
  sent_at : Sim_time.t;
  msg : int;
      (** Engine-allocated message id shared by the Send/Deliver/Drop trace
          events of this message; [-1] for local self-sends, which are not
          traced. *)
}

val pp_envelope : Format.formatter -> envelope -> unit
