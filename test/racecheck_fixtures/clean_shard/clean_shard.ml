(* The job-local discipline done right: every write and read inside the
   pool closure goes through state the closure itself created — the
   owner-threaded pattern pool jobs follow.  No findings. *)
let sum xs =
  Exec.Pool.run
    (List.map
       (fun chunk () ->
         let acc = ref 0 in
         List.iter (fun x -> acc := !acc + x) chunk;
         !acc)
       xs)
