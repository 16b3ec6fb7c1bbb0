(** Discrete logical time.

    The simulator advances an integer clock measured in abstract "ticks".
    All delays, periods, time-outs and the global stabilisation time (GST)
    are expressed in ticks.  Nothing in the reproduced algorithms depends on
    the absolute scale, only on ratios (e.g. heartbeat period vs message
    delay bound). *)

type t = int

val zero : t
val compare : t -> t -> int
val equal : t -> t -> bool
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val max : t -> t -> t
val min : t -> t -> t
val pp : Format.formatter -> t -> unit
val to_string : t -> string
