(* A3 fixture: the five [bad_*] bindings must each produce one [A3]
   finding; the [good_*] bindings must produce none. *)

open Sim
open Consensus

let bad_sort xs = List.sort compare xs
let bad_value v = v = Value.null
let bad_time t = t <> Sim_time.zero
let bad_map m = m = Pid.Map.empty
let bad_set s = s = Pid.Set.empty
let good_sort xs = List.sort Int.compare xs
let good_map m = Pid.Map.is_empty m
let good_int a b = a = b + 1
