(* A pure pool job: arithmetic plus state local to the job closure.
   The check must report nothing here — mutation of job-local refs is
   exactly what D1 and D2 permit. *)
let squares xs =
  Exec.Pool.run
    (List.map
       (fun x () ->
         let acc = ref 0 in
         for i = 1 to x do
           acc := !acc + i
         done;
         !acc)
       xs)
