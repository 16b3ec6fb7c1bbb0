(** Per-round message accounting for the consensus protocols.

    The paper's Section 5.4 counts {i messages per round}.  The protocols
    tag every message with its round ("estimate.r1", "ph2.r3", ...); this
    module aggregates a trace's [Send] events by that suffix, so a steady-
    state round can be measured even though execution pipelines into the
    next round while the decision's reliable broadcast is still in flight.
    Reliable-broadcast traffic lives in its own component and is excluded,
    matching the paper ("we have not considered the messages involved in
    the Reliable Broadcast primitive"). *)

val round_of_tag : string -> int option
(** Parses the trailing [".r<k>"]; [None] if absent. *)

val base_of_tag : string -> string
(** The tag without its [".r<k>"] suffix ("estimate.r3" → "estimate"). *)

val sends_by_round : Sim.Trace.t -> component:string -> (int * int) list
(** [(round, messages sent in that round)], ascending rounds. *)

val sends_in_round : Sim.Trace.t -> component:string -> round:int -> int

val sends_by_tag_in_round :
  Sim.Trace.t -> component:string -> round:int -> (string * int) list
(** Message-kind breakdown of one round (tag without the round suffix). *)
