(* One slot per domain: Domain.DLS keeps a domain's stores out of every
   other domain's reach, so neither [keep] nor [take] synchronises.  The
   owner sits in a one-cell weak array, which the GC clears once nothing
   else reaches the owner. *)
type ('owner, 'store) slot = { owner : 'owner Weak.t; mutable store : 'store option }

type ('owner, 'store) t = ('owner, 'store) slot Domain.DLS.key

let create () = Domain.DLS.new_key (fun () -> { owner = Weak.create 1; store = None })

let keep t owner store =
  let slot = Domain.DLS.get t in
  Weak.set slot.owner 0 (Some owner);
  slot.store <- Some store

let take t =
  let slot = Domain.DLS.get t in
  match slot.store with
  | Some _ as store when not (Weak.check slot.owner 0) ->
    slot.store <- None;
    store
  | Some _ | None -> None
