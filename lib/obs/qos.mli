(** Detector quality-of-service accounting (Chen/Toueg-style metrics).

    A streaming fold over the ordered crash / view-change events of one
    detector run.  The caller feeds events in trace order (the adapter
    {!Sim.Trace_qos} walks [Sim.Trace.iter]; the tracequery [rollup]
    subcommand parses exported JSONL) and closes the fold at the run's
    horizon; the report carries, per (observer, subject) pair, the raw
    interval totals that the standard QoS metrics and the SLA rollups
    ({!Rollup}) are derived from.

    Semantics, per ordered pair [(o, s)] with [o <> s]:

    - {b Accounting window}: [\[0, min(horizon, crash o))] — a crashed
      observer's pairs freeze at its crash instant.
    - {b Detection time} (TD): [s] crashed at [tc] and [o] (alive at the
      horizon) suspects [s] at the horizon — the time from [tc] until the
      start of that final, permanent suspicion interval ([0] when the
      suspicion predates the crash).  [None] when [s] never crashed, [o]
      crashed, or the suspicion never stuck (an undetected crash).
    - {b Mistake} (lambda_M, T_M): a suspicion interval beginning while
      [s] is alive; its duration accrues until rescind, the subject's
      crash, or the window end, whichever is first.  [mistake_time] sums
      the durations; [up_time] (the window truncated at the subject's
      crash) is the denominator of the mistake rate and of query
      accuracy ([1 - mistake_time / up_time]).
    - {b Correctness intervals} (SLA): the pair's view is correct when
      [alive(s) && not suspected] or [crashed(s) && suspected];
      [incorrect_time] and [longest_outage] total the complement —
      availability is [1 - incorrect_time / window].

    Per observer, the leader (Omega) output is tracked as a change
    count, the instant of the last change ([l_steady_at] — the
    time-to-steady-leader when the run converged) and the final trusted
    process.  Every leader transition counts, including the initial
    election ([None -> Some l]).

    All arithmetic is integer ticks over the deterministic stream: two
    byte-identical traces yield byte-identical reports. *)

type event =
  | Crash of { at : int; pid : int }
  | View of { at : int; observer : int; suspected : int list; trusted : int option }
      (** A detector module's output at [observer] changed.  Pids outside
          [0 .. n-1] are ignored defensively (hand-built streams). *)

type pair = {
  observer : int;
  subject : int;
  window : int;  (** [min horizon (crash observer)]. *)
  subject_crashed_at : int option;
  detection_time : int option;
  mistakes : int;
  mistake_time : int;
  longest_mistake : int;
  up_time : int;  (** Window truncated at the subject's crash. *)
  incorrect_time : int;
  longest_outage : int;
}

type leader = {
  l_observer : int;
  l_window : int;
  l_changes : int;
  l_steady_at : int option;  (** [None] when no leader was ever trusted. *)
  l_final : int option;
}

type report = { n : int; horizon : int; pairs : pair list; leaders : leader list }
(** [pairs] in (observer, subject) lexicographic order, all [n*(n-1)]
    ordered pairs; [leaders] one entry per observer, in pid order. *)

type t

val create : n:int -> t
(** Fresh fold state: everyone alive, nobody suspected, no leader. *)

val feed : t -> event -> unit
(** Consume the next event.  Events must arrive in trace order (the
    stream is a fold, not a sort); duplicate crashes and events at or
    from already-crashed processes are ignored. *)

val finish : t -> horizon:int -> report
(** Close all open intervals at [horizon] (virtually — the fold state is
    not mutated) and assemble the report. *)

val of_events : n:int -> horizon:int -> event list -> report
(** [create] + [feed] each + [finish]: convenience for tests. *)
