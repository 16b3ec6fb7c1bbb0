(** Which directed links actually carry messages — for the paper's
    quiescence claim (Section 4): in the ◇C → ◇P transformation,
    "eventually only these links carry messages", namely the n-1 links into
    the leader (I-AM-ALIVE) and the n-1 links out of it (suspect lists /
    piggybacked heartbeats).  Experiment E14 measures the active-link set
    of a steady-state window and compares it with that star. *)

val active_links :
  Sim.Trace.t ->
  components:string list ->
  from_t:Sim.Sim_time.t ->
  to_t:Sim.Sim_time.t ->
  (Sim.Pid.t * Sim.Pid.t) list
(** Distinct (src, dst) pairs with at least one [Send] of one of the
    components inside the window [\[from_t, to_t\]], both ends included,
    sorted.

    Cost: one pass of {!Sim.Trace.send_links} over the trace's packed
    words — per event a kind test, per send a byte lookup for its label,
    per wanted send a window compare and one byte mark in a per-source
    row.  No hashing and no allocation per event; the result list is
    built once from the marks.  On e23's ecp-steady (n = 1000, about 8M
    events, 2-core Xeon host) that is about 7 ns per trace event, against
    23–26 ns for a hash-set probe per send.  The events are not assumed
    to be sorted by [at], so the whole trace is read whatever the
    window. *)

val star_of : leader:Sim.Pid.t -> n:int -> (Sim.Pid.t * Sim.Pid.t) list
(** The 2(n-1) links of the leader's star: everyone to the leader and the
    leader to everyone, sorted. *)
