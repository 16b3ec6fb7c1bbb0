(** The failure-detector class taxonomy of Fig. 1, extended with Ω and the
    paper's ◇C ("Eventually Consistent") class.

    A class is a conjunction of abstract properties over infinite runs; the
    {!Spec.Fd_props} module checks finite-trace approximations of each
    property, and the E1 benchmark prints the resulting class matrix. *)

type property =
  | Strong_completeness
      (** Eventually every process that crashes is permanently suspected by
          every correct process. *)
  | Weak_completeness
      (** ... by some correct process. *)
  | Eventual_strong_accuracy
      (** There is a time after which correct processes are not suspected by
          any correct process. *)
  | Eventual_weak_accuracy
      (** There is a time after which some correct process is never
          suspected by any correct process. *)
  | Eventual_leadership
      (** Property 1: there is a time after which every correct process
          permanently trusts the same correct process. *)
  | Trusted_not_suspected
      (** Definition 1, third clause: there is a time after which the
          trusted process is not suspected. *)

type t =
  | P_eventual   (** ◇P: strong completeness + eventual strong accuracy. *)
  | Q_eventual   (** ◇Q: weak completeness + eventual strong accuracy. *)
  | S_eventual   (** ◇S: strong completeness + eventual weak accuracy. *)
  | W_eventual   (** ◇W: weak completeness + eventual weak accuracy. *)
  | Omega        (** Ω: eventual leader election. *)
  | Ec           (** ◇C: ◇S + Ω + eventually trusted ∉ suspected (Def. 1). *)

val properties : t -> property list
(** Defining properties of the class. *)

val implied_properties : t -> property list
(** [properties] closed under implication (strong completeness implies weak
    completeness; eventual strong accuracy implies eventual weak). *)

val all : t list
val all_properties : property list

val name : t -> string
(** "<>P", "<>S", "Omega", "<>C", ... (ASCII renderings). *)

val property_name : property -> string
val pp : Format.formatter -> t -> unit
