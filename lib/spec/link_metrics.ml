let compare_pair (a1, a2) (b1, b2) =
  match Sim.Pid.compare a1 b1 with 0 -> Sim.Pid.compare a2 b2 | c -> c

module Int_tbl = Hashtbl.Make (Int)

(* One allocation-free walk over the sends.  The trace hands back its
   interned component strings, so the component test is memoised on the
   last string seen (physical equality); a (src, dst) pair is one int key,
   and the distinct keys are sorted once at the end. *)
let active_links trace ~components ~from_t ~to_t =
  let seen = Int_tbl.create 64 in
  let last_component = ref "" in
  let last_wanted = ref (List.exists (String.equal "") components) in
  Sim.Trace.iter_sends trace (fun ~at ~src ~dst ~msg:_ ~component ~tag:_ ->
      if at >= from_t && at <= to_t then begin
        if component != !last_component then begin
          last_component := component;
          last_wanted := List.exists (String.equal component) components
        end;
        if !last_wanted then begin
          let key = (src lsl 32) lor dst in
          if not (Int_tbl.mem seen key) then Int_tbl.add seen key ()
        end
      end);
  Int_tbl.fold (fun key () acc -> key :: acc) seen []
  |> List.sort Int.compare
  |> List.map (fun key -> (key lsr 32, key land 0xffff_ffff))

let star_of ~leader ~n =
  List.concat_map
    (fun q -> if Sim.Pid.equal q leader then [] else [ (q, leader); (leader, q) ])
    (Sim.Pid.all ~n)
  |> List.sort compare_pair

let pp_links ppf links =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf (s, d) -> Format.fprintf ppf "%a>%a" Sim.Pid.pp s Sim.Pid.pp d))
    links
