(* A suppression naming no registered rule key is itself a finding: it
   would otherwise silently suppress nothing. *)
let[@alloc.zero] root x = (x + 1 [@check.allow closures "typo: no such rule"])
