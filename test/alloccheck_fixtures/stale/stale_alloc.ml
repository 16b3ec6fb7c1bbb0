(* A waiver whose span covers no finding: the Some box it once excused
   was unboxed away, so the attribute itself is reported as STALE. *)
let[@alloc.zero] root x =
  (x + 1 [@check.allow boxed "fixture: the Some box is gone"])
