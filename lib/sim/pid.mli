(** Process identifiers.

    The system model (paper, Section 2.1) is a finite, totally ordered set
    [Pi = {p_1, ..., p_n}] of processes.  We represent [p_i] by the integer
    [i - 1], so identifiers range over [0 .. n-1] and the total order of the
    paper is the natural integer order. *)

type t = int

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val pp : Format.formatter -> t -> unit
(** Prints [p3] for process 2, matching the paper's 1-based naming. *)

val to_string : t -> string

val all : n:int -> t list
(** [all ~n] is [p_1; ...; p_n], i.e. [[0; 1; ...; n-1]]. *)

val others : n:int -> t -> t list
(** [others ~n p] is every process except [p], in total order. *)

val next_in_ring : n:int -> t -> t
(** Successor on the logical ring [p_1 -> p_2 -> ... -> p_n -> p_1]. *)

val prev_in_ring : n:int -> t -> t
(** Predecessor on the logical ring. *)

val is_valid : n:int -> t -> bool

(** Sets of processes, as big-endian Patricia trees (Okasaki & Gill,
    "Fast Mergeable Integer Maps", 1998).

    Elements must be non-negative: [add] raises [Invalid_argument] on a
    negative one.  A set's shape is a function of its elements alone, so
    [add] and [remove] rebuild only the path to the element, O(log n) for
    pids below n, and return the argument itself when nothing changes.
    Sets derived from a common base by [add], [remove], [union], [inter]
    or [diff] therefore share every subtree the operation did not touch,
    physically, and [equal], [compare], [subset], [disjoint] and
    [iter_diff] skip shared subtrees without walking them.

    Iteration, [fold] and [elements] are in ascending order; [compare] is
    the lexicographic order of the ascending sequences, as
    {!Stdlib.Set.S.compare}.  [cardinal] walks the set. *)
module Set : sig
  type elt = t
  type t

  val empty : t
  val is_empty : t -> bool
  val mem : elt -> t -> bool
  val add : elt -> t -> t
  val remove : elt -> t -> t
  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val iter : (elt -> unit) -> t -> unit
  val fold : (elt -> 'a -> 'a) -> t -> 'a -> 'a
  val cardinal : t -> int
  val elements : t -> elt list
  val min_elt_opt : t -> elt option
  val of_list : elt list -> t

  val subset : t -> t -> bool
  (** [subset a b]: every member of [a] is in [b]. *)

  val disjoint : t -> t -> bool
  (** [disjoint a b]: no member of [a] is in [b].

      Neither allocates.  Both skip subtrees that [a] and [b] share
      physically (a shared subtree is a subset of itself, and a common
      member), and both cost at worst O(|a| + |b|). *)

  val iter_diff : (elt -> unit) -> t -> t -> unit
  (** [iter_diff f a b] applies [f] to the members of [a] that are not in
      [b], in ascending order.  Subtrees that [a] and [b] share
      physically are skipped without a walk, so for [b] derived from [a]
      (or [a] from [b]) by k adds and removes the call costs
      O(k log n); for unrelated sets it costs at worst
      O(|a| + |b|). *)
end

module Map : Map.S with type key = t

val set_of_list : t list -> Set.t

val pp_set : Format.formatter -> Set.t -> unit
(** Prints [{p1, p4}]. *)
