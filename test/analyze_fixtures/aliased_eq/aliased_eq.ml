(* Structural equality reaching Pid.t through a let-alias and an
   eta-expansion — the alias-aware A3 sees through both. *)
let eq = ( = )
let same_pid (a : Sim.Pid.t) (b : Sim.Pid.t) = eq a b

let eq2 a b = eq a b
let also_same (a : Sim.Pid.t) (b : Sim.Pid.t) = eq2 a b
