(* A [@check.allow] without a reason string does not suppress anything and
   is itself reported: this file must produce one [CHECK] finding and one
   [R1] finding. *)

let cpu () = (Sys.time [@check.allow ambient]) ()
