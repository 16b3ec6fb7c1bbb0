(** SLA rollups and deterministic JSON over {!Qos} reports.

    One {!scenario} per detector run (named, e.g. ["e1.heartbeat.seed1"]);
    {!to_json} renders a list of them as the [BENCH_qos.json] document
    validated by [docs/schemas/qos.schema.json].  The renderer is shared
    by `ecfd qos`, the tracequery `rollup` subcommand and bench e22, so
    identical traces produce byte-identical rollups on every surface. *)

type agg = {
  a_pairs : int;  (** Ordered (observer, subject) pairs, [n*(n-1)]. *)
  a_crashed : int;  (** Pairs whose subject crashed. *)
  a_detected : int;
  a_undetected : int;
      (** Crashed subject, live observer, suspicion never stuck. *)
  a_detection_mean : float option;  (** Over detected pairs; [None] if none. *)
  a_detection_max : int;
  a_mistakes : int;
  a_mistake_time : int;
  a_longest_mistake : int;
  a_up_time : int;
  a_mistake_rate_per_1k : float;
      (** Mistakes per 1000 tick*pairs of subject up-time. *)
  a_query_accuracy : float;  (** [1 - mistake_time / up_time]. *)
  a_window_total : int;
  a_incorrect_total : int;  (** Total downtime (incorrect-view time). *)
  a_availability_pct : float;
  a_longest_outage : int;
  a_leader_elected : bool;
  a_leader_changes : int;
  a_final_leader_agreed : bool;
      (** All observers alive at the horizon trust the same final leader. *)
  a_steady_leader_at : int option;
      (** Time-to-steady-leader: the last leader change at any surviving
          observer, when they agreed; [None] otherwise. *)
}

val aggregate : Qos.report -> agg

type scenario = { name : string; component : string; report : Qos.report }

val to_json : scenario list -> string
(** The full deterministic JSON document (trailing newline included):
    [{"bench": "qos", "schema_version": 1, "scenarios": [...]}] with
    per-scenario aggregates plus per-pair and per-observer detail. *)
