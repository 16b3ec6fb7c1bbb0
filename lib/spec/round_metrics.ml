let round_of_tag tag =
  match String.rindex_opt tag '.' with
  | None -> None
  | Some i ->
    let suffix = String.sub tag (i + 1) (String.length tag - i - 1) in
    if String.length suffix >= 2 && suffix.[0] = 'r' then
      int_of_string_opt (String.sub suffix 1 (String.length suffix - 1))
    else None

let base_of_tag tag =
  match String.rindex_opt tag '.' with
  | Some i when round_of_tag tag <> None -> String.sub tag 0 i
  | Some _ | None -> tag

let fold_sends trace ~component f init =
  let acc = ref init in
  Sim.Trace.iter_sends trace (fun ~at:_ ~src:_ ~dst:_ ~msg:_ ~component:c ~tag ->
      if String.equal c component then
        match round_of_tag tag with None -> () | Some r -> acc := f !acc r tag);
  !acc

let sends_by_round trace ~component =
  let table = Hashtbl.create 16 in
  fold_sends trace ~component
    (fun () r _ ->
      Hashtbl.replace table r (1 + Option.value ~default:0 (Hashtbl.find_opt table r)))
    ();
  Hashtbl.fold (fun r c acc -> (r, c) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let sends_in_round trace ~component ~round =
  fold_sends trace ~component (fun acc r _ -> if r = round then acc + 1 else acc) 0

let sends_by_tag_in_round trace ~component ~round =
  let table = Hashtbl.create 16 in
  fold_sends trace ~component
    (fun () r tag ->
      if r = round then begin
        let base = base_of_tag tag in
        Hashtbl.replace table base
          (1 + Option.value ~default:0 (Hashtbl.find_opt table base))
      end)
    ();
  Hashtbl.fold (fun tag c acc -> (tag, c) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
