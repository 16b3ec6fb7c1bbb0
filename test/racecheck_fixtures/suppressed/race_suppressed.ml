(* The d1/d2 violations again, each waived with a reasoned
   [@check.allow]: no surviving findings, two suppressed ones. *)
let total = ref 0

let tally xs =
  Exec.Pool.run
    (List.map
       (fun x () ->
         (total := !total + x)
         [@check.allow escape "fixture: the harness runs this pool at one domain"]
         [@check.allow
           publish "fixture: same single-domain contract covers the read"];
         x)
       xs)
