(** Message payloads.

    The payload type is an extensible variant: each protocol component
    (failure detector, broadcast, consensus, ...) declares its own
    constructors and the engine routes messages by component name, so
    independent protocol stacks compose inside one simulation without a
    global message type. *)

type t = ..

type t += Blank  (** A contentless payload, handy in tests. *)
