type property =
  | Strong_completeness
  | Weak_completeness
  | Eventual_strong_accuracy
  | Eventual_weak_accuracy
  | Eventual_leadership
  | Trusted_not_suspected

type t =
  | P_eventual
  | Q_eventual
  | S_eventual
  | W_eventual
  | Omega
  | Ec

let properties = function
  | P_eventual -> [ Strong_completeness; Eventual_strong_accuracy ]
  | Q_eventual -> [ Weak_completeness; Eventual_strong_accuracy ]
  | S_eventual -> [ Strong_completeness; Eventual_weak_accuracy ]
  | W_eventual -> [ Weak_completeness; Eventual_weak_accuracy ]
  | Omega -> [ Eventual_leadership ]
  | Ec ->
    [
      Strong_completeness;
      Eventual_weak_accuracy;
      Eventual_leadership;
      Trusted_not_suspected;
    ]

let close_under_implication props =
  let add p acc = if List.mem p acc then acc else p :: acc in
  List.fold_left
    (fun acc p ->
      let acc = add p acc in
      match p with
      | Strong_completeness -> add Weak_completeness acc
      | Eventual_strong_accuracy -> add Eventual_weak_accuracy acc
      | Weak_completeness | Eventual_weak_accuracy | Eventual_leadership
      | Trusted_not_suspected -> acc)
    [] props
  |> List.rev

let implied_properties c = close_under_implication (properties c)

let all = [ P_eventual; Q_eventual; S_eventual; W_eventual; Omega; Ec ]

let all_properties =
  [
    Strong_completeness;
    Weak_completeness;
    Eventual_strong_accuracy;
    Eventual_weak_accuracy;
    Eventual_leadership;
    Trusted_not_suspected;
  ]

let name = function
  | P_eventual -> "<>P"
  | Q_eventual -> "<>Q"
  | S_eventual -> "<>S"
  | W_eventual -> "<>W"
  | Omega -> "Omega"
  | Ec -> "<>C"

let property_name = function
  | Strong_completeness -> "strong completeness"
  | Weak_completeness -> "weak completeness"
  | Eventual_strong_accuracy -> "eventual strong accuracy"
  | Eventual_weak_accuracy -> "eventual weak accuracy"
  | Eventual_leadership -> "eventual leadership (Property 1)"
  | Trusted_not_suspected -> "eventually trusted not suspected"

let pp ppf c = Format.pp_print_string ppf (name c)
