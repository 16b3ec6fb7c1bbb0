(** Storage handed from a collected owner to its successor, per domain.

    An engine grows its event slab and timer wheel by doubling from
    empty and records its trace into newly allocated chunks, and a sweep
    builds one engine after another.  A spare lets the next engine start
    from the storage of the last one, once the last one is gone, instead
    of from fresh memory, whose every page costs a first-touch fault.

    A spare holds, in each domain, at most one store and a weak pointer to
    the owner that registered it ({!keep}).  {!take} hands the store over
    only after that owner has been collected, so two live owners never
    share storage.  The store is held strongly and the owner weakly: a
    store must therefore hold no OCaml value that reaches its owner, or
    the owner can never be collected and nothing is ever handed over.
    The engine's store is int arrays and its timer wheel, itself all int
    arrays; the trace's is Bigarray chunks.

    Whether a store is handed over depends on when the GC ran, so a
    successor must read nothing of what it takes over before writing it:
    the reuse changes speed and memory, never results. *)

type ('owner, 'store) t

val create : unit -> ('owner, 'store) t
(** A spare that is empty in every domain.  One per kind of owner,
    created at module initialisation. *)

val keep : ('owner, 'store) t -> 'owner -> 'store -> unit
(** [keep t owner store] makes [store] the calling domain's spare, to be
    handed over once [owner] has been collected.  It replaces what the
    domain's spare held; a replaced store stays with its own owner.  Keep
    a store once, when its owner is made, and let the owner mutate it in
    place: a store kept twice, or in two domains, could be handed over
    twice. *)

val take : ('owner, 'store) t -> 'store option
(** The calling domain's store, if its owner has been collected; the
    spare is then empty, so a store is handed over at most once.  [None]
    while the owner is alive or when the spare is empty. *)
