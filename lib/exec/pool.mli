(** Deterministic Domain-based job pool.

    The experiment harness regenerates the paper's evaluation by running
    hundreds of independent simulations — each one a self-contained
    [Sim.Engine.t], a pure function of (seed, configuration).  [run] spreads
    such a fixed job list over OCaml 5 domains and returns the results {i in
    job order}, regardless of completion order, so parallel output is
    byte-identical to sequential output.

    The determinism contract (HACKING.md, "The job pool"): a job must be a
    pure closure — it builds its own engine/RNG from explicit inputs,
    touches no mutable state shared with any other job or with the caller,
    and does not print.  The pool adds nothing nondeterministic on top: work
    distribution (an atomic next-job index) only decides {i where} a job
    runs, never {i what} it computes, and results are stored by job index.

    Jobs must not themselves call [run]; a nested call from inside a worker
    executes its jobs sequentially in that worker (documented degradation,
    never a deadlock). *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()] capped at 8 (sweeps are
    memory-bandwidth bound well before that; an explicit
    [~domains]/[set_default_domains] may exceed it); at least 1. *)

val default_domains : unit -> int
(** Domain count used when [run] is not given [~domains]: the last
    [set_default_domains] value if any, else the [ECFD_DOMAINS] environment
    variable (a positive integer), else {!recommended_domains}.  [1] means
    fully sequential — today's behaviour. *)

val set_default_domains : int -> unit
(** Override {!default_domains} (the [--domains] CLI knob).  Raises
    [Invalid_argument] on a non-positive count. *)

val with_domains : int -> (unit -> 'a) -> 'a
(** [with_domains d f] runs [f] with the default domain count set to [d],
    restoring the previous default afterwards (also on exception). *)

val run : ?domains:int -> (unit -> 'a) list -> 'a list
(** [run jobs] executes every job and returns their results in job order.

    [domains] (default {!default_domains}) is clamped to
    [1 .. length jobs].  With an effective count of 1 the jobs run
    sequentially in the calling domain; otherwise [domains - 1] workers are
    spawned ([Domain.spawn]) and the calling domain works alongside them,
    all pulling job indices from one atomic counter.

    Every job is executed even if another job raises; after completion the
    exception of the {i lowest-indexed} failing job is re-raised (with its
    backtrace), so failure behaviour is independent of scheduling too. *)

(** {1 Throughput accounting}

    The pool keeps global counters so the bench harness can report
    sequential-vs-parallel speedup without running everything twice:
    [busy_s] is the summed wall-clock of individual jobs (the sequential
    cost of the same work), [wall_s] the elapsed time of the [run] calls
    themselves.  [busy_s /. wall_s] is the achieved speedup of the pooled
    sections.  Counters are mutated only by the calling domain, after
    workers have been joined. *)

type metrics = {
  runs : int;  (** [run] invocations since the last reset *)
  jobs : int;  (** jobs executed *)
  busy_s : float;  (** summed per-job wall-clock (sequential-equivalent) *)
  wall_s : float;  (** elapsed wall-clock of the pooled sections *)
}

val reset_metrics : unit -> unit
val metrics : unit -> metrics
