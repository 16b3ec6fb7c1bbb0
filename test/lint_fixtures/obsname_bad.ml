(* R6 fixture: computed metric/span names (plus the literal and allow escapes). *)
let bad_counter reg which = Obs.Registry.counter reg ~name:("consensus." ^ which)
let bad_gauge reg parts = Obs.Registry.gauge reg ~name:(String.concat "." parts)

let bad_histogram reg n =
  Obs.Registry.histogram reg ~name:(Printf.sprintf "fd.latency.%d" n) ~buckets:[ 8; 16 ]

let bad_span engine p component name = Sim.Engine.begin_span engine p ~component ~name
let good_counter reg = Obs.Registry.counter reg ~name:"consensus.ec.rounds"
let good_span engine p = Sim.Engine.begin_span engine p ~component:"fd.ring" ~name:"epoch"

let bad_scalar_span engine p name =
  let span = Sim.Engine.open_span engine p ~component:"fd.ring" ~name in
  Sim.Engine.close_span engine p ~component:"fd.ring" ~name:(name ^ "") ~span ~opened_at:0

let good_scalar_span engine p =
  let span = Sim.Engine.open_span engine p ~component:"fd.ring" ~name:"epoch" in
  Sim.Engine.close_span engine p ~component:"fd.ring" ~name:"epoch" ~span ~opened_at:0

let allowed reg name =
  (Obs.Registry.counter reg ~name [@check.allow obsname "fixture: the escape hatch"])

let bad_span_run engine p name = Sim.Engine.open_spans engine p ~component:"fd.ring" ~name ~count:2
