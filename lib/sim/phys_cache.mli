(** A direct-mapped cache in front of a string-keyed lookup.

    The per-message path looks things up by component and tag strings
    that callers pass over and over as the same physical constants.  This
    cache remembers the last key seen in each of a few slots and answers a
    repeat by physical equality ([==]) of the key strings, so a hit costs
    no hashing and no string comparison.  A miss (a dynamic string such as
    a round-tagged [estimate.r%d] tag, or a slot collision) falls through
    to the lookup function given at {!create} and refills the slot.

    Keys are up to three strings; pass [""] for unused parts.  Strings are
    immutable, so a physical hit is always a correct hit.  The lookup
    function must be a pure function of the key for the run's lifetime
    (typically "find in a table, or add"): the cache never invalidates. *)

type 'v t

val create : dummy:'v -> (string -> string -> string -> 'v) -> 'v t
(** [create ~dummy lookup] is an empty cache.  [dummy] only fills the
    value slots before their first miss; it is never returned. *)

val find : 'v t -> string -> string -> string -> 'v
(** [find t a b c] is [lookup a b c], answered from the cache when the
    slot for [(a, b, c)] holds these very strings. *)
