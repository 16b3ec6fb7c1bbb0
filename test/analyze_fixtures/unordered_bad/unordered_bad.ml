(* A4 fixture: the three [bad_*] bindings must each produce one [A4]
   finding; the [good_*] bindings must produce none. *)

let bad_direct table = Hashtbl.fold (fun k _ acc -> k :: acc) table []

let bad_bound table =
  let xs = Hashtbl.fold (fun k _ acc -> k :: acc) table [] in
  List.length xs

let bad_iter table =
  let acc = ref [] in
  Hashtbl.iter (fun k _ -> acc := k :: !acc) table;
  !acc

let good_piped table =
  Hashtbl.fold (fun k _ acc -> k :: acc) table [] |> List.sort Int.compare

let good_direct table = List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) table [])

let good_bound table =
  let xs = Hashtbl.fold (fun k _ acc -> k :: acc) table [] in
  List.sort Int.compare xs

let good_counter table = Hashtbl.fold (fun _ v acc -> acc + v) table 0
