(** Typed metrics.

    A registry holds named counters, gauges and fixed-bucket histograms.
    The engine and the protocol components register metrics once (names
    {b must} be string literals — check rule R6 — so the metric space is a
    static property of the code, never data-dependent) and update them on
    the hot path with plain field mutations.

    Snapshots are deterministic: metrics are listed in name order, and a
    snapshot is a pure function of the update history — never of table
    insertion order — so snapshot JSON can ride in bench output under the
    byte-identity contract (HACKING.md, "Determinism rules").

    Registration is idempotent: registering an existing name with the
    same kind (and, for histograms, the same buckets) returns the metric
    already installed, so a component can be installed several times over
    one engine and its updates aggregate.  Re-registering a name with a
    different kind or different buckets raises [Invalid_argument]. *)

type t

val create : unit -> t

(** {1 Metric kinds} *)

type counter
(** Monotone event count. *)

type gauge
(** Last-set (or high-water) level. *)

type histogram
(** Fixed upper-bound buckets plus an overflow bucket, with count / sum /
    max of every observation. *)

val counter : t -> name:string -> counter
val gauge : t -> name:string -> gauge

val histogram : t -> name:string -> buckets:int list -> histogram
(** [buckets] are inclusive upper bounds, strictly increasing, non-empty.
    An observation lands in the first bucket whose bound is [>=] the
    value, or in the implicit overflow bucket. *)

(** {1 Updates} *)

val incr : counter -> unit
val add : counter -> int -> unit

val set : gauge -> int -> unit

val set_max : gauge -> int -> unit
(** High-water update: keep the maximum of the current and the new value. *)

val observe : histogram -> int -> unit

(** {1 Reads} *)

val count : counter -> int
val level : gauge -> int

(** {1 Snapshots} *)

type value =
  | Counter of int
  | Gauge of int
  | Histogram of {
      buckets : int list;  (** The registered upper bounds. *)
      counts : int list;  (** One count per bucket, plus the overflow bucket. *)
      count : int;
      sum : int;
      max_value : int;  (** Largest observation; 0 when [count = 0]. *)
      p50 : int;  (** Median estimate from bucket counts (see below). *)
      p99 : int;
      p999 : int;
    }

type snapshot = (string * value) list
(** In strictly increasing name order. *)

val histogram_quantile :
  buckets:int list -> counts:int list -> count:int -> max_value:int -> float -> int
(** [histogram_quantile ~buckets ~counts ~count ~max_value q] estimates the
    [q]-quantile of a histogram from its bucket counts: the rank
    [ceil (q * count)] (clamped to [1 .. count]) is located in the
    cumulative bucket counts, and the estimate is that bucket's inclusive
    upper bound, clamped to [max_value]; a rank landing in the overflow
    bucket reports [max_value].  [0] when [count = 0].  Deterministic —
    a pure function of the (deterministic) counts, so p50/p99/p999 can
    ride in bench JSON under the byte-identity contract. *)

val snapshot : t -> snapshot

val json_of_snapshot : snapshot -> string
(** A deterministic JSON object:
    [{"metrics": [{"name": ..., "kind": ..., ...}, ...]}] with metrics in
    name order — embeddable in the bench JSON, where it carries the
    engine's lifecycle facts next to {!Sim.Stats}' message ledger. *)
