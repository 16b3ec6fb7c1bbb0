let default_width = 64

let pid_char q =
  if q < 9 then Char.chr (Char.code '1' + q)
  else if q < 9 + 26 then Char.chr (Char.code 'a' + q - 9)
  else '#'

(* Sample a piecewise-constant timeline over [width] slices of [horizon]:
   the cell shows the (single) value holding through the slice, or [mixed]
   if it changed inside it. *)
let sample_slices ~width ~horizon ~equal ~(timeline : 'a Eventually.timeline) ~render ~mixed =
  let slice = Stdlib.max 1 (horizon / width) in
  let cells = Bytes.make width ' ' in
  let rec fill col current rest =
    if col < width then begin
      let slice_end = (col + 1) * slice in
      (* Advance through the events inside this slice. *)
      let rec advance current changed rest =
        match rest with
        | (at, v) :: more when at < slice_end ->
          let changed =
            changed || (match current with None -> false | Some c -> not (equal c v))
          in
          advance (Some v) changed more
        | _ -> (current, changed, rest)
      in
      let current', changed, rest' = advance current false rest in
      let ch =
        if changed then mixed
        else match current' with None -> ' ' | Some v -> render v
      in
      Bytes.set cells col ch;
      fill (col + 1) current' rest'
    end
  in
  fill 0 None timeline;
  Bytes.to_string cells

let mark_crash ~width ~horizon row crash_at =
  match crash_at with
  | None -> row
  | Some at ->
    let slice = Stdlib.max 1 (horizon / width) in
    let col = Stdlib.min (width - 1) (at / slice) in
    String.mapi (fun i c -> if i > col then 'x' else if i = col then 'X' else c) row

let render_rows ~width run ~horizon ~cell =
  let crashes = Sim.Trace.crashes run.Fd_props.trace in
  let buffer = Buffer.create 1024 in
  List.iter
    (fun p ->
      let row =
        sample_slices ~width ~horizon ~equal:Fd.Fd_view.equal
          ~timeline:(Fd_props.timeline run p) ~render:(cell p) ~mixed:'?'
      in
      let crash_at = List.assoc_opt p crashes in
      Buffer.add_string buffer
        (Printf.sprintf "%4s |%s|\n" (Sim.Pid.to_string p)
           (mark_crash ~width ~horizon row crash_at)))
    (Sim.Pid.all ~n:run.Fd_props.n);
  Buffer.add_string buffer
    (Printf.sprintf "     0%*s\n" (width - 1) (Printf.sprintf "t=%d" horizon));
  Buffer.contents buffer

let render_leadership ?(width = default_width) run ~horizon =
  let cell p (v : Fd.Fd_view.t) =
    match v.Fd.Fd_view.trusted with
    | None -> '.'
    | Some l when Sim.Pid.equal l p -> '*'
    | Some l -> pid_char l
  in
  render_rows ~width run ~horizon ~cell

let render_suspicions ?(width = default_width) run ~horizon =
  let cell _p (v : Fd.Fd_view.t) =
    let k = Sim.Pid.Set.cardinal v.Fd.Fd_view.suspected in
    if k <= 9 then Char.chr (Char.code '0' + k) else '+'
  in
  render_rows ~width run ~horizon ~cell

let render_decisions ?(width = default_width) trace ~n ~horizon =
  let crashes = Sim.Trace.crashes trace in
  let decisions = Sim.Trace.decisions trace in
  let first_proposal = ref Sim.Pid.Map.empty in
  Sim.Trace.iter_kinds trace [ Sim.Trace.Kind.Propose ] (fun (e : Sim.Trace.event) ->
      match e.body with
      | Sim.Trace.Propose { at; pid; _ } when not (Sim.Pid.Map.mem pid !first_proposal) ->
        first_proposal := Sim.Pid.Map.add pid at !first_proposal
      | _ -> ());
  let first_proposal = !first_proposal in
  let slice = Stdlib.max 1 (horizon / width) in
  let buffer = Buffer.create 1024 in
  List.iter
    (fun p ->
      let proposed_at = Sim.Pid.Map.find_opt p first_proposal in
      let decided_at =
        List.find_map
          (fun (pid, _, _, at) -> if Sim.Pid.equal pid p then Some at else None)
          decisions
      in
      let row =
        String.init width (fun col ->
            let t = col * slice in
            match (proposed_at, decided_at) with
            | _, Some d when t >= d -> 'D'
            | Some pr, _ when t >= pr -> 'p'
            | _ -> '.')
      in
      let crash_at = List.assoc_opt p crashes in
      Buffer.add_string buffer
        (Printf.sprintf "%4s |%s|\n" (Sim.Pid.to_string p)
           (mark_crash ~width ~horizon row crash_at))
    )
    (Sim.Pid.all ~n);
  Buffer.add_string buffer
    (Printf.sprintf "     0%*s\n" (width - 1) (Printf.sprintf "t=%d" horizon));
  Buffer.contents buffer

let legend =
  "legend: leadership  * self  1..9/a..z trusted peer  . none  ? mixed  X crash\n\
  \        suspicions  0..9/+ count of suspected\n\
  \        decisions   p proposed  D decided"
