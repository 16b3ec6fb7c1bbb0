(* A [@check.allow] naming a key no registered rule owns suppresses
   nothing and is itself reported: this file must produce one [CHECK]
   finding and one [R1] finding. *)

let cpu () = (Sys.time [@check.allow ambiant "typo: no such rule key"]) ()
