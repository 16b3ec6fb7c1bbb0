(* The z2_boxed violation again, waived with a reasoned [@check.allow]. *)
let[@alloc.zero] root x =
  if x > 0 then (Some x [@check.allow boxed "fixture: documented waiver"]) else None
