(** Failure-detector property checkers (the Fig. 1 taxonomy, plus Ω's
    Property 1 and ◇C's coherence clause), evaluated over a finished run's
    trace.

    Correct processes are those that never crash in the trace; a property
    holds if its finite-trace approximation (see {!Eventually}) does.  Each
    checker reports the stabilization instant, so experiments can also
    compare {i convergence times} (e.g. the ring's detection latency,
    experiment E3).

    Cost: the first query on a run walks the trace once and indexes every
    pid's views of the component and the crashes; later queries read the
    index (it is rebuilt only if the trace has grown since).  Every
    correct observer's timeline is then walked once per property.  The
    two properties over a whole target set test each view with one set
    operation: {!strong_completeness} asks whether the crashed set is a
    subset of the view's suspected set, and {!eventual_strong_accuracy}
    whether the correct set is disjoint from it.  Neither allocates, and
    a view costs at most O(|targets| + |suspected|) instead of one [mem]
    per target.  On an ecp-churn run (n = 128, three crashes, 616k
    events, 2-core Xeon host) [eventual_strong_accuracy] takes about 1 ms
    against 17 ms with one [mem] per (view, target), and e23's ◇P oracle
    ([satisfies_class P_eventual], index build included) about 30 ns per
    trace event against 61 ns.  {!eventual_weak_accuracy} and
    {!leadership} also walk each observer's timeline once, not once per
    candidate leader: the first tracks, per candidate, whether the
    latest view suspects it and since when it has not, visiting only the
    members that change between views; the second keeps each observer's
    final trusted process and the start of its run of views.  On that run
    they take about 4 ms and 0.1 ms, against 50 ms and 12 ms per
    candidate. *)

type report = {
  holds : bool;
  since : Sim.Sim_time.t option;  (** Stabilization instant, when it holds. *)
}

type index
(** Per-pid view timelines and crash instants, built on first use. *)

type run = private {
  trace : Sim.Trace.t;
  component : string;  (** The detector's component name. *)
  n : int;
  index : index;
}
(** Only {!make_run} builds one, so the index always matches the trace. *)

val make_run : component:string -> n:int -> Sim.Trace.t -> run

val timeline : run -> Sim.Pid.t -> Fd.Fd_view.t Eventually.timeline
(** The recorded output views of the process's module, in trace order —
    {!Eventually.of_views} read from the run's index.  Pids [>= n] are
    indexed too; a pid with no views of the component gets [[]]. *)

val correct_processes : run -> Sim.Pid.t list
(** Processes [0 .. n-1] that never crash in the trace. *)

val crashed_processes : run -> Sim.Pid.t list
(** Every pid with a crash event, ascending (pids [>= n] included). *)

val strong_completeness : run -> report
val weak_completeness : run -> report
val eventual_strong_accuracy : run -> report
val eventual_weak_accuracy : run -> report

val leadership : run -> report
(** Ω's Property 1: eventually every correct process permanently trusts the
    same correct process. *)

val trusted_not_suspected : run -> report
(** Definition 1's third clause. *)

val check : Fd.Classes.property -> run -> report

val satisfies_class : Fd.Classes.t -> run -> bool
(** All the class's defining properties hold on the run. *)

val class_matrix : run -> (Fd.Classes.property * report) list
(** Every property with its report — one row of the E1 matrix. *)

val eventual_leader : run -> Sim.Pid.t option
(** The common leader once {!leadership} holds. *)

val detection_time : run -> victim:Sim.Pid.t -> Sim.Sim_time.t option
(** Instant from which {b every} correct process permanently suspects
    [victim] (crash-detection latency numerator for E3). *)

val leader_changes : run -> Sim.Pid.t -> int
(** How many times the process's trusted output switched to a different
    process over the run — the instability that {i stable} leader election
    [2] minimises (experiment E11). *)

val leader_changes_after : run -> Sim.Pid.t -> after:Sim.Sim_time.t -> int
(** Trusted-output switches strictly after the given instant — non-zero
    deep into a run means leadership never settled (robust against the
    finite-trace "eventually" being fooled by a quiet final stretch). *)

val false_suspicion_events_after : run -> after:Sim.Sim_time.t -> int
(** Fresh suspicions of correct processes by correct processes strictly
    after the given instant, summed over all observers.  Non-zero deep into
    a run means eventual strong accuracy never settled (robust against a
    horizon that happens to land in a calm stretch). *)

val demotions_of_live_leaders : run -> Sim.Pid.t -> int
(** Among those changes, how many demoted a process that had {b not}
    crashed by the time of the change.  A stable Ω keeps this near zero
    once the system calms down. *)
