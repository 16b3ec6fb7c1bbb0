let compare_pair (a1, a2) (b1, b2) =
  match Sim.Pid.compare a1 b1 with 0 -> Sim.Pid.compare a2 b2 | c -> c

let active_links trace ~components ~from_t ~to_t =
  Sim.Trace.send_links trace ~components ~from_t ~to_t

let star_of ~leader ~n =
  List.concat_map
    (fun q -> if Sim.Pid.equal q leader then [] else [ (q, leader); (leader, q) ])
    (Sim.Pid.all ~n)
  |> List.sort compare_pair
