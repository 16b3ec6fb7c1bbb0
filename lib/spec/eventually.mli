(** "Eventually forever" over finite traces.

    The paper's completeness/accuracy/leadership properties all have the
    shape "there is a time after which X holds permanently".  On a finite
    run we approximate: X must hold from some instant through the run's
    horizon (DESIGN.md §4); the instant is reported so experiments can
    also measure convergence time.  The caller is responsible for running
    far enough past GST and the last crash for the approximation to be
    meaningful. *)

type 'a timeline = (Sim.Sim_time.t * 'a) list
(** Piecewise-constant signal: value [v] holds from its instant until the
    next entry.  Must be sorted by time (ties resolved by the later entry). *)

val of_views :
  component:string -> Sim.Trace.t -> pid:Sim.Pid.t -> Fd.Fd_view.t timeline
(** The recorded output views of one failure-detector module.  Each call
    scans the whole trace once; to read several processes' views of the
    same run, use {!Fd_props.timeline}, which indexes the trace once. *)

val stabilization : ('a -> bool) -> 'a timeline -> Sim.Sim_time.t option
(** Earliest instant from which the predicate holds through the end of the
    timeline; [None] if it is false at the end (or the timeline is empty). *)

val holds_eventually : ('a -> bool) -> 'a timeline -> bool

val all : Sim.Sim_time.t option list -> Sim.Sim_time.t option
(** Conjunction: latest stabilization if all hold, [None] otherwise.
    [all []] is [Some 0] (vacuously true from the start). *)

val any : Sim.Sim_time.t option list -> Sim.Sim_time.t option
(** Disjunction: earliest stabilization among those that hold. *)
