(* A3 fixture: the eight [bad_*] bindings must each produce one [A3]
   finding; the [good_*] bindings must produce none. *)

open Sim
open Consensus

let bad_sort xs = List.sort compare xs
let bad_value v = v = Value.null
let bad_time t = t <> Sim_time.zero
let bad_map m = m = Pid.Map.empty
let bad_set s = s = Pid.Set.empty
let bad_max (t : Sim_time.t) = max t Sim_time.zero
let bad_min (p : Pid.t) q = Stdlib.min p q
let min_value = min
let bad_min_alias (v : Value.t) w = min_value v w
let good_sort xs = List.sort Int.compare xs
let good_map m = Pid.Map.is_empty m
let good_int a b = a = b + 1
let good_max a = max 1 (a + 1)
let good_time_max (t : Sim_time.t) = Sim_time.max t Sim_time.zero
