type fate =
  | Drop
  | Deliver_at of Sim_time.t

type t = {
  describe : string;
  fate : rng:Rng.t -> now:Sim_time.t -> src:Pid.t -> dst:Pid.t -> fate;
}

let reliable ?(min_delay = 1) ?(max_delay = 8) () =
  assert (min_delay >= 0 && max_delay >= min_delay);
  let fate ~rng ~now ~src:_ ~dst:_ =
    Deliver_at (now + Rng.int_in_range rng ~lo:min_delay ~hi:max_delay)
  in
  { describe = Printf.sprintf "reliable[%d,%d]" min_delay max_delay; fate }

let synchronous ~delay =
  assert (delay >= 0);
  let fate ~rng:_ ~now ~src:_ ~dst:_ = Deliver_at (now + delay) in
  { describe = Printf.sprintf "synchronous[%d]" delay; fate }

let partially_synchronous ?(min_delay = 1) ?pre_gst_max ~gst ~delta () =
  assert (delta >= min_delay);
  let pre_gst_max = match pre_gst_max with Some m -> m | None -> 50 * delta in
  let fate ~rng ~now ~src:_ ~dst:_ =
    let bound = Sim_time.max now gst + delta in
    if now >= gst then Deliver_at (Sim_time.min bound (now + Rng.int_in_range rng ~lo:min_delay ~hi:delta))
    else begin
      let raw = now + Rng.int_in_range rng ~lo:min_delay ~hi:(Stdlib.max min_delay pre_gst_max) in
      Deliver_at (Sim_time.min raw bound)
    end
  in
  { describe = Printf.sprintf "partially-synchronous[gst=%d,delta=%d]" gst delta; fate }

let fair_lossy ~drop_probability ~underlying =
  assert (drop_probability >= 0.0 && drop_probability < 1.0);
  let fate ~rng ~now ~src ~dst =
    if Rng.bool rng ~p:drop_probability then Drop else underlying.fate ~rng ~now ~src ~dst
  in
  { describe = Printf.sprintf "fair-lossy[p=%.2f over %s]" drop_probability underlying.describe;
    fate }

let growing_blackouts ?(min_delay = 1) ?(max_delay = 8) ?(open_window = 60)
    ?(initial_blackout = 60) ?(blackout_growth = 60) () =
  assert (min_delay >= 0 && max_delay >= min_delay);
  assert (open_window > 0 && initial_blackout >= 0 && blackout_growth >= 0);
  (* Cycles of [open_window] ticks of normal delivery followed by a
     blackout whose length grows by [blackout_growth] each cycle. *)
  let in_blackout now =
    let rec walk start k =
      let blackout = initial_blackout + (k * blackout_growth) in
      let cycle_end = start + open_window + blackout in
      if now < start + open_window then false
      else if now < cycle_end then true
      else walk cycle_end (k + 1)
    in
    walk 0 0
  in
  let fate ~rng ~now ~src:_ ~dst:_ =
    if in_blackout now then Drop
    else Deliver_at (now + Rng.int_in_range rng ~lo:min_delay ~hi:max_delay)
  in
  {
    describe =
      Printf.sprintf "growing-blackouts[open=%d,start=%d,+%d]" open_window initial_blackout
        blackout_growth;
    fate;
  }

let ever_slower ?(min_delay = 1) ~slowdown_divisor () =
  assert (min_delay >= 0 && slowdown_divisor > 0);
  let fate ~rng ~now ~src:_ ~dst:_ =
    let jitter = Rng.int_in_range rng ~lo:0 ~hi:(Stdlib.max 1 (now / (4 * slowdown_divisor))) in
    Deliver_at (now + min_delay + (now / slowdown_divisor) + jitter)
  in
  { describe = Printf.sprintf "ever-slower[/%d]" slowdown_divisor; fate }

let route ~describe select =
  let fate ~rng ~now ~src ~dst = (select ~src ~dst).fate ~rng ~now ~src ~dst in
  { describe; fate }

let never = { describe = "never"; fate = (fun ~rng:_ ~now:_ ~src:_ ~dst:_ -> Drop) }
