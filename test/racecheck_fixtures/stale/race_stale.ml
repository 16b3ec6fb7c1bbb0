(* A waiver whose span covers no D1 finding: the write it once excused is
   gone, so the checker reports the attribute itself as STALE — dead
   waivers rot into blanket excuses if left in place. *)
let pure xs =
  Exec.Pool.run
    (List.map
       (fun x () -> (x + 1) [@check.allow escape "fixture: nothing left to waive"])
       xs)
