(** Remnant of the removed sharded back-end; the sequential engine is the
    only engine.  Kept only because the e23 benchmark's [pin ()] still
    calls these two functions: delete the module once it stops. *)

val set_default_shards : int -> unit
(** Accepts only [1]; raises [Invalid_argument] otherwise. *)

val set_default_profile : bool -> unit
(** Accepts only [false]; raises [Invalid_argument] otherwise. *)
