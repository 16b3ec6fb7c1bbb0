(* A waiver whose span covers no finding: the ambient call it once
   excused is gone, so the attribute itself is reported as STALE. *)
let fine () = (1 + 1 [@check.allow ambient "fixture: nothing left to waive"])
