(** Communication link models.

    A link model decides, for every send, whether the message is lost and
    otherwise when it is delivered.  The models implement the assumptions of
    the paper:

    - {b reliable}: every message sent is eventually delivered, exactly once,
      after a finite but unbounded delay (Section 2.1);
    - {b partially synchronous}: after some global stabilisation time GST,
      every message is delivered within an (unknown to the algorithms) bound
      [delta] of [max (send time) GST] — the Dwork–Lynch–Stockmeyer model
      used in Section 4 and in [6,8];
    - {b fair-lossy}: messages can be lost, but if infinitely many are sent
      then infinitely many are delivered (the output links of the leader in
      Fig. 2).  We realise fairness with i.i.d. drops of probability [< 1].

    Models can differ per directed pair of processes ({!route}), which the
    transformation of Fig. 2 needs: partially synchronous links {i into} the
    leader, fair-lossy links {i out of} it, no assumption elsewhere. *)

type fate =
  | Drop
  | Deliver_at of Sim_time.t  (** Absolute delivery instant. *)

type t = {
  describe : string;
  fate : rng:Rng.t -> now:Sim_time.t -> src:Pid.t -> dst:Pid.t -> fate;
}

val reliable : ?min_delay:int -> ?max_delay:int -> unit -> t
(** Uniform delay in [[min_delay, max_delay]]; defaults 1 and 8. *)

val synchronous : delay:int -> t
(** Fixed delay — handy for exact message/latency accounting in benches. *)

val partially_synchronous :
  ?min_delay:int -> ?pre_gst_max:int -> gst:Sim_time.t -> delta:int -> unit -> t
(** Before GST, delays are drawn uniformly in [[min_delay, pre_gst_max]]
    (default [pre_gst_max] = 50 * delta, i.e. wildly asynchronous), but every
    message is in any case delivered by [max now gst + delta]; after GST,
    delays are uniform in [[min_delay, delta]].  Hence the DLS bound
    "received and processed in at most [delta] after GST" always holds. *)

val fair_lossy : drop_probability:float -> underlying:t -> t
(** Drop each message independently with [drop_probability]; otherwise defer
    to [underlying].  Requires [0 <= drop_probability < 1] for fairness. *)

val growing_blackouts :
  ?min_delay:int ->
  ?max_delay:int ->
  ?open_window:int ->
  ?initial_blackout:int ->
  ?blackout_growth:int ->
  unit ->
  t
(** Fair-lossy with unbounded silence: delivery windows of [open_window]
    ticks alternate with blackouts whose length grows without bound (by
    [blackout_growth] per cycle).  Infinitely many messages get through
    (fairness), but inter-arrival gaps grow past every time-out — even an
    adaptive one — so no time-out-based accuracy can hold on such a link.
    This is the non-source side of the "weak reliability and synchrony"
    systems of Aguilera et al. (PODC 2003), where Ω is implementable but
    ◇P is not (experiment E12). *)

val ever_slower : ?min_delay:int -> slowdown_divisor:int -> unit -> t
(** Reliable but never timely: the delay grows with the clock
    (min_delay + now/slowdown_divisor + small jitter).  Every message
    arrives, yet no fixed (or additively adapted) time-out can eventually
    hold — the kind of link on which ◇P is not implementable although Ω is,
    the "weak reliability and synchrony assumptions" setting of Aguilera et
    al. (PODC 2003) that the paper cites in Section 1.1 (experiment E12). *)

val route : describe:string -> (src:Pid.t -> dst:Pid.t -> t) -> t
(** Per-directed-pair model selection. *)

val never : t
(** Drops everything (crash of a link; used for adversarial tests). *)
