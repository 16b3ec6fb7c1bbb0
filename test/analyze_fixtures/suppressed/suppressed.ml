(* The print-in-job violation again, but justified: [@check.allow pure
   "reason"] on the submission expression suppresses A1 for its span. *)
let noisy xs =
  (Exec.Pool.run (List.map (fun x () -> print_endline "progress"; x) xs)
  [@check.allow pure "fixture: demonstrates justified suppression"])
