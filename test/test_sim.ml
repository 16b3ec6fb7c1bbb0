(* Unit and property tests of the simulation substrate. *)

let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Pid                                                                *)
(* ------------------------------------------------------------------ *)

let pid_tests =
  [
    tc "all" (fun () -> Alcotest.(check (list int)) "all 4" [ 0; 1; 2; 3 ] (Sim.Pid.all ~n:4));
    tc "others" (fun () ->
        Alcotest.(check (list int)) "others" [ 0; 2; 3 ] (Sim.Pid.others ~n:4 1));
    tc "ring successor wraps" (fun () ->
        Alcotest.(check int) "succ p4" 0 (Sim.Pid.next_in_ring ~n:4 3);
        Alcotest.(check int) "succ p1" 1 (Sim.Pid.next_in_ring ~n:4 0));
    tc "ring predecessor wraps" (fun () ->
        Alcotest.(check int) "pred p1" 3 (Sim.Pid.prev_in_ring ~n:4 0);
        Alcotest.(check int) "pred p3" 1 (Sim.Pid.prev_in_ring ~n:4 2));
    tc "pretty-printing is 1-based" (fun () ->
        Alcotest.(check string) "p1" "p1" (Sim.Pid.to_string 0);
        Alcotest.(check string) "set"
          "{p1, p3}"
          (Format.asprintf "%a" Sim.Pid.pp_set (Sim.Pid.set_of_list [ 2; 0 ])));
    tc "is_valid" (fun () ->
        Alcotest.(check bool) "0 ok" true (Sim.Pid.is_valid ~n:3 0);
        Alcotest.(check bool) "3 bad" false (Sim.Pid.is_valid ~n:3 3);
        Alcotest.(check bool) "-1 bad" false (Sim.Pid.is_valid ~n:3 (-1)));
  ]

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let rng_tests =
  [
    tc "determinism: same seed, same stream" (fun () ->
        let a = Sim.Rng.create ~seed:42 and b = Sim.Rng.create ~seed:42 in
        for _ = 1 to 100 do
          Alcotest.(check int64) "same" (Sim.Rng.next_int64 a) (Sim.Rng.next_int64 b)
        done);
    tc "different seeds differ" (fun () ->
        let a = Sim.Rng.create ~seed:1 and b = Sim.Rng.create ~seed:2 in
        Alcotest.(check bool) "differ" true (Sim.Rng.next_int64 a <> Sim.Rng.next_int64 b));
    tc "int is never negative (62-bit regression)" (fun () ->
        (* A 63-bit truncation bug once produced negative delays. *)
        let r = Sim.Rng.create ~seed:7 in
        for _ = 1 to 10_000 do
          let v = Sim.Rng.int r ~bound:1_000_000 in
          if v < 0 then Alcotest.failf "negative sample %d" v
        done);
    Test_util.qcheck ~count:200 ~name:"int_in_range stays in range"
      QCheck2.Gen.(tup2 (int_range (-1000) 1000) (int_range (-1000) 1000))
      (fun (a, b) ->
        let lo = min a b and hi = max a b in
        let r = Sim.Rng.create ~seed:(abs (a + (b * 1009))) in
        let v = Sim.Rng.int_in_range r ~lo ~hi in
        v >= lo && v <= hi);
    tc "float in [0,1)" (fun () ->
        let r = Sim.Rng.create ~seed:3 in
        for _ = 1 to 1000 do
          let f = Sim.Rng.float r in
          if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range %f" f
        done);
    tc "bool respects extreme probabilities" (fun () ->
        let r = Sim.Rng.create ~seed:4 in
        for _ = 1 to 100 do
          Alcotest.(check bool) "p=0" false (Sim.Rng.bool r ~p:0.0)
        done;
        let hits = ref 0 in
        for _ = 1 to 1000 do
          if Sim.Rng.bool r ~p:0.9 then incr hits
        done;
        Alcotest.(check bool) "p=0.9 mostly true" true (!hits > 800));
    tc "split yields an independent stream" (fun () ->
        let a = Sim.Rng.create ~seed:5 in
        let b = Sim.Rng.split a in
        let xs = List.init 10 (fun _ -> Sim.Rng.next_int64 a) in
        let ys = List.init 10 (fun _ -> Sim.Rng.next_int64 b) in
        Alcotest.(check bool) "streams differ" true (xs <> ys));
    tc "shuffle is a permutation" (fun () ->
        let r = Sim.Rng.create ~seed:6 in
        let a = Array.init 50 Fun.id in
        Sim.Rng.shuffle r a;
        let sorted = Array.copy a in
        Array.sort compare sorted;
        Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted);
    tc "choose picks a member" (fun () ->
        let r = Sim.Rng.create ~seed:8 in
        for _ = 1 to 100 do
          let x = Sim.Rng.choose r [ 1; 2; 3 ] in
          Alcotest.(check bool) "member" true (List.mem x [ 1; 2; 3 ])
        done);
    tc "choose on empty list raises" (fun () ->
        let r = Sim.Rng.create ~seed:9 in
        Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty list") (fun () ->
            ignore (Sim.Rng.choose r [])));
    tc "int stays in range for bounds near max_int" (fun () ->
        (* Bounds this large reject roughly half the raw draws; the result
           must still land in [0, bound). *)
        let r = Sim.Rng.create ~seed:12 in
        let bound = (max_int / 2) + 1 in
        for _ = 1 to 1000 do
          let v = Sim.Rng.int r ~bound in
          if v < 0 || v >= bound then Alcotest.failf "out of range %d" v
        done);
    tc "int has no modulo bias (regression)" (fun () ->
        (* With bound = 3 * 2^60, plain [raw mod bound] over 62-bit raws
           maps the top 2^60 raws back onto [0, 2^60), making results below
           2^60 land with probability 1/2 instead of 1/3.  Rejection
           sampling restores 1/3; 10^4 samples separate the two cleanly. *)
        let r = Sim.Rng.create ~seed:13 in
        let bound = 3 * (1 lsl 60) in
        let cutoff = 1 lsl 60 in
        let hits = ref 0 in
        let samples = 10_000 in
        for _ = 1 to samples do
          if Sim.Rng.int r ~bound < cutoff then incr hits
        done;
        let fraction = float_of_int !hits /. float_of_int samples in
        if fraction < 0.28 || fraction > 0.39 then
          Alcotest.failf "biased: fraction below 2^60 = %.3f (want ~1/3, biased gives ~1/2)"
            fraction);
    tc "int rejects non-positive bounds" (fun () ->
        let r = Sim.Rng.create ~seed:14 in
        Alcotest.check_raises "zero" (Invalid_argument "Rng.int: bound must be positive")
          (fun () -> ignore (Sim.Rng.int r ~bound:0)));
    tc "draws keep their pinned stream and allocate nothing" (fun () ->
        (* The first draws of two seeds, as the generator has always
           produced them: a change of state representation must not
           change the stream. *)
        let first seed =
          let r = Sim.Rng.create ~seed in
          List.init 6 (fun _ -> Sim.Rng.int r ~bound:1000)
        in
        Alcotest.(check (list int)) "seed 1" [ 492; 673; 881; 251; 878; 897 ] (first 1);
        Alcotest.(check (list int)) "seed 42" [ 570; 797; 285; 91; 889; 528 ] (first 42);
        Alcotest.(check int64) "seed 1, raw" (-4616330145664149646L)
          (Sim.Rng.next_int64 (Sim.Rng.create ~seed:1));
        Alcotest.(check int64) "seed 42, raw" (-7450291807549245335L)
          (Sim.Rng.next_int64 (Sim.Rng.create ~seed:42));
        let r = Sim.Rng.create ~seed:15 in
        let sum = ref 0 in
        let before = Gc.minor_words () in
        for _ = 1 to 10_000 do
          sum := !sum + Sim.Rng.int r ~bound:1000
        done;
        let words = Gc.minor_words () -. before in
        Alcotest.(check bool) "draws landed in range" true (!sum >= 0 && !sum < 10_000_000);
        Alcotest.(check int) "minor words over 10k draws" 0 (int_of_float words));
  ]

(* ------------------------------------------------------------------ *)
(* Event queue                                                        *)
(* ------------------------------------------------------------------ *)

(* The engine's event queue is a [Timer_wheel] over a slab of events,
   with sequence numbers from one insertion counter.  [wheel_queue]
   rebuilds that shape in miniature (cell = insertion index = seq), so
   the queue's ordering contract is tested on the wheel itself. *)
type 'a wheel_queue = { w : Sim.Timer_wheel.t; values : (int, 'a) Hashtbl.t; mutable next : int }

let wheel_queue () = { w = Sim.Timer_wheel.create (); values = Hashtbl.create 16; next = 0 }

let schedule q ~at v =
  let cell = q.next in
  q.next <- cell + 1;
  Hashtbl.replace q.values cell v;
  Sim.Timer_wheel.add q.w ~cell ~deadline:at ~seq:cell

let pop q =
  if Sim.Timer_wheel.is_empty q.w then None
  else begin
    let at = Sim.Timer_wheel.next_at q.w in
    let cell = Sim.Timer_wheel.pop q.w in
    let v = Hashtbl.find q.values cell in
    Hashtbl.remove q.values cell;
    Some (at, v)
  end

let event_queue_tests =
  [
    tc "pops by time" (fun () ->
        let q = wheel_queue () in
        schedule q ~at:5 "b";
        schedule q ~at:1 "a";
        schedule q ~at:9 "c";
        Alcotest.(check (option (pair int string))) "a" (Some (1, "a")) (pop q);
        Alcotest.(check (option (pair int string))) "b" (Some (5, "b")) (pop q);
        Alcotest.(check (option (pair int string))) "c" (Some (9, "c")) (pop q);
        Alcotest.(check (option (pair int string))) "drained" None (pop q));
    tc "same-instant events fire in scheduling order" (fun () ->
        let q = wheel_queue () in
        List.iter (fun s -> schedule q ~at:3 s) [ "x"; "y"; "z" ];
        let order = List.init 3 (fun _ -> snd (Option.get (pop q))) in
        Alcotest.(check (list string)) "fifo" [ "x"; "y"; "z" ] order);
    tc "next_time" (fun () ->
        let q = wheel_queue () in
        Alcotest.(check bool) "empty" true (Sim.Timer_wheel.is_empty q.w);
        schedule q ~at:7 ();
        Alcotest.(check int) "7" 7 (Sim.Timer_wheel.next_at q.w);
        schedule q ~at:4 ();
        Alcotest.(check int) "4" 4 (Sim.Timer_wheel.next_at q.w));
    Test_util.qcheck ~count:200 ~name:"random schedules drain in sorted FIFO-stable order"
      QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 20))
      (fun times ->
        (* Schedule values tagged with their insertion index; the drain must
           be sorted by time and, among equal times, by insertion order. *)
        let q = wheel_queue () in
        List.iteri (fun i at -> schedule q ~at (i, at)) times;
        let rec drain acc =
          match pop q with
          | None -> List.rev acc
          | Some (at, (i, at')) -> drain ((at, at', i) :: acc)
        in
        let drained = drain [] in
        List.length drained = List.length times
        && List.for_all (fun (at, at', _) -> at = at') drained
        &&
        let rec monotone = function
          | (t1, _, i1) :: ((t2, _, i2) :: _ as rest) ->
            (t1 < t2 || (t1 = t2 && i1 < i2)) && monotone rest
          | [ _ ] | [] -> true
        in
        monotone drained);
  ]

(* ------------------------------------------------------------------ *)
(* Timer wheel                                                        *)
(* ------------------------------------------------------------------ *)

(* Deltas that straddle every structural edge of the wheel: slot 0,
   level boundaries (32^k - 1, 32^k, 32^k + 1 for each level), the span
   edge where cells park in the overflow list, and multiples of the span
   (several overflow migrations before the cell becomes placeable). *)
let wheel_boundary_deltas =
  let span = Sim.Timer_wheel.span in
  [
    0; 1; 2; 30; 31; 32; 33; 63; 64; 1023; 1024; 1025; 32767; 32768; 32769;
    1_048_575; 1_048_576; 1_048_577; 33_554_431; 33_554_432; 33_554_433;
    span - 1; span; span + 1; (2 * span) - 1; 2 * span; 3 * span;
  ]

let timer_wheel_tests =
  [
    tc "structural constants" (fun () ->
        Alcotest.(check int) "span = 32^levels" Sim.Timer_wheel.span
          (int_of_float
             (float_of_int Sim.Timer_wheel.slots_per_level ** float_of_int Sim.Timer_wheel.levels)));
    tc "single cell pops at its deadline" (fun () ->
        let w = Sim.Timer_wheel.create () in
        Sim.Timer_wheel.add w ~cell:0 ~deadline:17 ~seq:3;
        Alcotest.(check int) "next_at" 17 (Sim.Timer_wheel.next_at w);
        Alcotest.(check int) "pop" 0 (Sim.Timer_wheel.pop w);
        Alcotest.(check bool) "empty" true (Sim.Timer_wheel.is_empty w));
    tc "equal deadlines pop in seq order regardless of insertion order" (fun () ->
        let w = Sim.Timer_wheel.create () in
        Sim.Timer_wheel.add w ~cell:0 ~deadline:5 ~seq:9;
        Sim.Timer_wheel.add w ~cell:1 ~deadline:5 ~seq:2;
        Sim.Timer_wheel.add w ~cell:2 ~deadline:5 ~seq:4;
        Alcotest.(check (list int)) "seq order" [ 1; 2; 0 ]
          (List.init 3 (fun _ -> Sim.Timer_wheel.pop w)));
    tc "boundary deltas drain in deadline order across cascades" (fun () ->
        (* One cell per structural edge, inserted far-to-near so every
           level and the overflow list are populated at once. *)
        let w = Sim.Timer_wheel.create () in
        let deltas = List.sort (fun a b -> compare b a) wheel_boundary_deltas in
        List.iteri (fun i d -> Sim.Timer_wheel.add w ~cell:i ~deadline:d ~seq:i) deltas;
        let expected = List.sort compare wheel_boundary_deltas in
        let popped =
          List.init (List.length deltas) (fun _ ->
              let at = Sim.Timer_wheel.next_at w in
              let cell = Sim.Timer_wheel.pop w in
              (at, cell))
        in
        Alcotest.(check (list int)) "deadline order" expected (List.map fst popped);
        Alcotest.(check bool) "drained" true (Sim.Timer_wheel.is_empty w));
    tc "adding behind the cursor raises" (fun () ->
        let w = Sim.Timer_wheel.create () in
        Sim.Timer_wheel.add w ~cell:0 ~deadline:10 ~seq:0;
        ignore (Sim.Timer_wheel.pop w : int);
        Alcotest.(check bool) "raises" true
          (try
             Sim.Timer_wheel.add w ~cell:1 ~deadline:9 ~seq:1;
             false
           with Invalid_argument _ -> true));
    Test_util.qcheck ~count:300 ~name:"wheel and a sorted-list model pop the identical (time, seq) stream"
      QCheck2.Gen.(
        list_size (int_range 0 150)
          (option (tup2 (int_range 0 40) (int_range 0 80))))
      (fun ops ->
        (* Some (b, r): insert at now + delta where the delta is a boundary
           delta (b indexes the table) perturbed by a small random offset r;
           None: pop.  The model is the (deadline, seq, cell) list kept
           sorted; the wheel must agree with it on every pop — same
           instant, same cell — and on emptiness.  This is the merge
           soundness argument of HACKING.md in test form: the wheel pops
           exactly the order one totally ordered queue would. *)
        let w = Sim.Timer_wheel.create () in
        let model = ref [] in
        let boundaries = Array.of_list wheel_boundary_deltas in
        let now = ref 0 in
        let next_seq = ref 0 in
        let pop_both () =
          match !model with
          | [] -> Sim.Timer_wheel.is_empty w
          | (at, _, cell) :: rest ->
            model := rest;
            let at_w = Sim.Timer_wheel.next_at w in
            let cell_w = Sim.Timer_wheel.pop w in
            now := at_w;
            at_w = at && cell_w = cell
        in
        List.for_all
          (fun op ->
            match op with
            | Some (b, r) ->
              let delta = boundaries.(b mod Array.length boundaries) + r in
              (* One counter hands out both the cell and its seq. *)
              let seq = !next_seq in
              incr next_seq;
              let deadline = !now + delta in
              model := List.merge compare !model [ (deadline, seq, seq) ];
              Sim.Timer_wheel.add w ~cell:seq ~deadline ~seq;
              Sim.Timer_wheel.cardinal w = List.length !model
            | None -> pop_both ())
          ops
        &&
        (* Drain the rest: the tails must agree too. *)
        let rec drain () = if !model = [] then Sim.Timer_wheel.is_empty w else pop_both () && drain () in
        drain ());
    tc "shrink_capacity drops columns after the wheel empties" (fun () ->
        let w = Sim.Timer_wheel.create () in
        Sim.Timer_wheel.ensure_capacity w 1024;
        Alcotest.(check bool) "grew" true (Sim.Timer_wheel.capacity w >= 1024);
        Sim.Timer_wheel.add w ~cell:3 ~deadline:1 ~seq:0;
        ignore (Sim.Timer_wheel.pop w : int);
        Sim.Timer_wheel.shrink_capacity w 4;
        Alcotest.(check bool) "shrunk" true (Sim.Timer_wheel.capacity w <= 16);
        (* Still fully usable after shrinking. *)
        Sim.Timer_wheel.add w ~cell:2 ~deadline:5 ~seq:1;
        Alcotest.(check int) "pops" 2 (Sim.Timer_wheel.pop w));
  ]

(* ------------------------------------------------------------------ *)
(* Link                                                               *)
(* ------------------------------------------------------------------ *)

let deliver_time link ~now =
  let rng = Sim.Rng.create ~seed:11 in
  match link.Sim.Link.fate ~rng ~now ~src:0 ~dst:1 with
  | Sim.Link.Drop -> None
  | Sim.Link.Deliver_at t -> Some t

let link_tests =
  [
    tc "synchronous has a fixed delay" (fun () ->
        let l = Sim.Link.synchronous ~delay:4 in
        Alcotest.(check (option int)) "now+4" (Some 14) (deliver_time l ~now:10));
    Test_util.qcheck ~count:300 ~name:"reliable delay within bounds"
      QCheck2.Gen.(tup2 (int_range 0 1000) (int_range 0 100))
      (fun (now, s) ->
        let l = Sim.Link.reliable ~min_delay:2 ~max_delay:9 () in
        let rng = Sim.Rng.create ~seed:s in
        match l.Sim.Link.fate ~rng ~now ~src:0 ~dst:1 with
        | Sim.Link.Drop -> false
        | Sim.Link.Deliver_at t -> t >= now + 2 && t <= now + 9);
    Test_util.qcheck ~count:500 ~name:"partial synchrony: DLS bound max(send,gst)+delta"
      QCheck2.Gen.(tup3 (int_range 0 2000) (int_range 0 1000) (int_range 0 1000))
      (fun (now, gst, s) ->
        let delta = 10 in
        let l = Sim.Link.partially_synchronous ~gst ~delta () in
        let rng = Sim.Rng.create ~seed:s in
        match l.Sim.Link.fate ~rng ~now ~src:0 ~dst:1 with
        | Sim.Link.Drop -> false
        | Sim.Link.Deliver_at t -> t > now && t <= max now gst + delta);
    tc "fair-lossy with p=0 never drops" (fun () ->
        let l =
          Sim.Link.fair_lossy ~drop_probability:0.0 ~underlying:(Sim.Link.synchronous ~delay:1)
        in
        for now = 0 to 200 do
          if deliver_time l ~now = None then Alcotest.fail "dropped"
        done);
    tc "fair-lossy drops roughly p" (fun () ->
        let l =
          Sim.Link.fair_lossy ~drop_probability:0.5 ~underlying:(Sim.Link.synchronous ~delay:1)
        in
        let rng = Sim.Rng.create ~seed:21 in
        let drops = ref 0 in
        for _ = 1 to 2000 do
          match l.Sim.Link.fate ~rng ~now:0 ~src:0 ~dst:1 with
          | Sim.Link.Drop -> incr drops
          | Sim.Link.Deliver_at _ -> ()
        done;
        Alcotest.(check bool) "between 40% and 60%" true (!drops > 800 && !drops < 1200));
    tc "never drops everything" (fun () ->
        Alcotest.(check (option int)) "drop" None (deliver_time Sim.Link.never ~now:0));
    tc "ever_slower: latency grows with the clock, but every message arrives" (fun () ->
        let l = Sim.Link.ever_slower ~slowdown_divisor:4 () in
        let d t = Option.get (deliver_time l ~now:t) - t in
        Alcotest.(check bool) "early cheap" true (d 0 < 10);
        Alcotest.(check bool) "late expensive" true (d 10_000 >= 2500);
        Alcotest.(check bool) "ever later" true (d 100_000 > d 10_000));
    tc "growing_blackouts: open windows deliver fast, blackouts drop" (fun () ->
        let l =
          Sim.Link.growing_blackouts ~min_delay:1 ~max_delay:4 ~open_window:50
            ~initial_blackout:50 ~blackout_growth:50 ()
        in
        (* cycle 0: open [0,50), blackout [50,100); cycle 1: open [100,150),
           blackout [150,250) ... *)
        Alcotest.(check bool) "open at 10" true (deliver_time l ~now:10 <> None);
        Alcotest.(check (option int)) "blackout at 60" None (deliver_time l ~now:60);
        Alcotest.(check bool) "open again at 110" true (deliver_time l ~now:110 <> None);
        Alcotest.(check (option int)) "longer blackout at 200" None (deliver_time l ~now:200));
    tc "growing_blackouts: fairness — open windows recur forever" (fun () ->
        let l = Sim.Link.growing_blackouts () in
        (* Scan far ahead: there must still be delivery instants. *)
        let found = ref false in
        let t = ref 100_000 in
        while (not !found) && !t < 200_000 do
          if deliver_time l ~now:!t <> None then found := true;
          t := !t + 13
        done;
        Alcotest.(check bool) "delivery possible late in the run" true !found);
    tc "route dispatches per pair" (fun () ->
        let l =
          Sim.Link.route ~describe:"test" (fun ~src ~dst:_ ->
              if src = 0 then Sim.Link.synchronous ~delay:1 else Sim.Link.synchronous ~delay:5)
        in
        let rng = Sim.Rng.create ~seed:1 in
        let t01 =
          match l.Sim.Link.fate ~rng ~now:0 ~src:0 ~dst:1 with
          | Sim.Link.Deliver_at t -> t
          | Sim.Link.Drop -> -1
        in
        let t10 =
          match l.Sim.Link.fate ~rng ~now:0 ~src:1 ~dst:0 with
          | Sim.Link.Deliver_at t -> t
          | Sim.Link.Drop -> -1
        in
        Alcotest.(check int) "fast" 1 t01;
        Alcotest.(check int) "slow" 5 t10);
  ]

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)
(* ------------------------------------------------------------------ *)

type Sim.Payload.t += Ping of int

let mk_engine ?(seed = 0) ?(n = 3) ?(delay = 2) () =
  Sim.Engine.create ~seed ~n ~link:(Sim.Link.synchronous ~delay) ()

(* One timer each fired, cancelled and orphaned by its owner's crash. *)
let timer_mix () =
  let e = mk_engine () in
  let t1 = Sim.Engine.set_timer e 0 ~delay:3 (fun () -> ()) in
  ignore (Sim.Engine.set_timer e 1 ~delay:4 (fun () -> ()) : Sim.Engine.timer);
  ignore (Sim.Engine.set_timer e 2 ~delay:5 (fun () -> ()) : Sim.Engine.timer);
  Sim.Engine.cancel_timer e t1;
  Sim.Engine.schedule_crash e 2 ~at:1;
  Sim.Engine.run_until e 10;
  e

let engine_tests =
  [
    tc "message delivery calls the handler with src and payload" (fun () ->
        let e = mk_engine () in
        let got = ref [] in
        Sim.Engine.register e ~component:"t" 1 (fun ~src payload ->
            match payload with Ping k -> got := (src, k) :: !got | _ -> ());
        Sim.Engine.send e ~component:"t" ~tag:"ping" ~src:0 ~dst:1 (Ping 7);
        Sim.Engine.run_until e 10;
        Alcotest.(check (list (pair int int))) "one delivery" [ (0, 7) ] !got);
    tc "self-send is local, instant and uncounted" (fun () ->
        let e = mk_engine () in
        let got = ref 0 in
        Sim.Engine.register e ~component:"t" 0 (fun ~src:_ _ -> incr got);
        Sim.Engine.send e ~component:"t" ~tag:"ping" ~src:0 ~dst:0 (Ping 1);
        Sim.Engine.run_until e 0;
        Alcotest.(check int) "delivered at t=0" 1 !got;
        Alcotest.(check int) "not counted" 0
          (Sim.Stats.component_counts (Sim.Engine.stats e) ~component:"t").Sim.Stats.sent);
    tc "timers fire at the right instant" (fun () ->
        let e = mk_engine () in
        let fired = ref (-1) in
        ignore (Sim.Engine.set_timer e 0 ~delay:5 (fun () -> fired := Sim.Engine.now e));
        Sim.Engine.run_until e 4;
        Alcotest.(check int) "not yet" (-1) !fired;
        Sim.Engine.run_until e 5;
        Alcotest.(check int) "at 5" 5 !fired);
    tc "cancelled timers do not fire" (fun () ->
        let e = mk_engine () in
        let fired = ref false in
        let t = Sim.Engine.set_timer e 0 ~delay:5 (fun () -> fired := true) in
        Sim.Engine.cancel_timer e t;
        Sim.Engine.run_until e 10;
        Alcotest.(check bool) "silent" false !fired);
    tc "every: periodic until stopped" (fun () ->
        let e = mk_engine () in
        let count = ref 0 in
        let stop = Sim.Engine.every e 0 ~phase:0 ~period:10 (fun () -> incr count) in
        Sim.Engine.run_until e 35;
        Alcotest.(check int) "4 firings (0,10,20,30)" 4 !count;
        stop ();
        Sim.Engine.run_until e 100;
        Alcotest.(check int) "no more" 4 !count);
    tc "crash stops timers, handlers and sends" (fun () ->
        let e = mk_engine () in
        let count = ref 0 in
        ignore (Sim.Engine.every e 0 ~phase:0 ~period:10 (fun () -> incr count) : unit -> unit);
        Sim.Engine.register e ~component:"t" 0 (fun ~src:_ _ -> incr count);
        Sim.Engine.schedule_crash e 0 ~at:13;
        Sim.Engine.run_until e 12;
        (* Arrives at 14, after the crash: must be dropped. *)
        Sim.Engine.send e ~component:"t" ~tag:"ping" ~src:1 ~dst:0 (Ping 0);
        Sim.Engine.run_until e 100;
        Alcotest.(check int) "only t=0 and t=10 firings" 2 !count;
        Alcotest.(check bool) "dead" false (Sim.Engine.is_alive e 0);
        (* Sends from the dead process are swallowed (only p2's earlier send
           was ever counted). *)
        Sim.Engine.send e ~component:"t" ~tag:"ping" ~src:0 ~dst:1 (Ping 0);
        Sim.Engine.run_until e 110;
        Alcotest.(check int) "src dead: nothing new sent" 1
          (Sim.Stats.component_counts (Sim.Engine.stats e) ~component:"t").Sim.Stats.sent);
    tc "message to a crashed process is dropped and traced" (fun () ->
        let e = mk_engine () in
        Sim.Engine.register e ~component:"t" 1 (fun ~src:_ _ -> Alcotest.fail "delivered");
        Sim.Engine.schedule_crash e 1 ~at:1;
        Sim.Engine.run_until e 1;
        Sim.Engine.send e ~component:"t" ~tag:"ping" ~src:0 ~dst:1 (Ping 0);
        Sim.Engine.run_until e 20;
        let drops =
          List.filter
            (fun (ev : Sim.Trace.event) ->
              match ev.body with Sim.Trace.Drop _ -> true | _ -> false)
            (Sim.Trace.events (Sim.Engine.trace e))
        in
        Alcotest.(check int) "one drop" 1 (List.length drops));
    tc "in-flight messages from a crashed process still arrive" (fun () ->
        let e = mk_engine ~delay:5 () in
        let got = ref 0 in
        Sim.Engine.register e ~component:"t" 1 (fun ~src:_ _ -> incr got);
        Sim.Engine.send e ~component:"t" ~tag:"ping" ~src:0 ~dst:1 (Ping 0);
        Sim.Engine.schedule_crash e 0 ~at:1;
        Sim.Engine.run_until e 20;
        Alcotest.(check int) "delivered" 1 !got);
    tc "duplicate registration raises" (fun () ->
        let e = mk_engine () in
        Sim.Engine.register e ~component:"t" 0 (fun ~src:_ _ -> ());
        Alcotest.(check bool) "raises" true
          (try
             Sim.Engine.register e ~component:"t" 0 (fun ~src:_ _ -> ());
             false
           with Invalid_argument _ -> true));
    tc "run_until refuses to go backwards" (fun () ->
        let e = mk_engine () in
        Sim.Engine.run_until e 10;
        Alcotest.(check bool) "raises" true
          (try
             Sim.Engine.run_until e 5;
             false
           with Invalid_argument _ -> true));
    tc "deterministic replay: identical traces for identical seeds" (fun () ->
        let run seed =
          let e = Sim.Engine.create ~seed ~n:4 ~link:(Sim.Link.reliable ()) () in
          Sim.Engine.register e ~component:"t" 1 (fun ~src:_ _ -> ());
          List.iter
            (fun p ->
              ignore
                (Sim.Engine.every e p ~phase:0 ~period:7 (fun () ->
                     Sim.Engine.send e ~component:"t" ~tag:"ping" ~src:p ~dst:1 (Ping p))
                  : unit -> unit))
            [ 0; 2; 3 ];
          Sim.Engine.run_until e 500;
          List.map
            (Format.asprintf "%a" Sim.Trace.pp_event)
            (Sim.Trace.events (Sim.Engine.trace e))
        in
        Alcotest.(check (list string)) "same" (run 33) (run 33);
        Alcotest.(check bool) "different seed differs" true (run 33 <> run 34));
    tc "harness 'at' runs even with everyone crashed" (fun () ->
        let e = mk_engine ~n:1 () in
        Sim.Engine.schedule_crash e 0 ~at:1;
        let ran = ref false in
        Sim.Engine.at e 5 (fun () -> ran := true);
        Sim.Engine.run_until e 10;
        Alcotest.(check bool) "ran" true !ran);
    tc "cancelled timer's registry slot is reclaimed when the deadline passes" (fun () ->
        let e = mk_engine () in
        let t = Sim.Engine.set_timer e 0 ~delay:5 (fun () -> Alcotest.fail "fired") in
        Sim.Engine.cancel_timer e t;
        Alcotest.(check int) "resident while pending" 1 (Sim.Engine.timer_residency e);
        Sim.Engine.run_until e 4;
        Alcotest.(check int) "still resident before deadline" 1 (Sim.Engine.timer_residency e);
        Sim.Engine.run_until e 5;
        Alcotest.(check int) "reclaimed at deadline" 0 (Sim.Engine.timer_residency e);
        let lc = Sim.Stats.lifecycle (Sim.Engine.stats e) in
        Alcotest.(check int) "set" 1 lc.Sim.Stats.timers_set;
        Alcotest.(check int) "cancelled" 1 lc.Sim.Stats.timers_cancelled;
        Alcotest.(check int) "reclaimed" 1 lc.Sim.Stats.timers_reclaimed;
        Alcotest.(check int) "never fired" 0 lc.Sim.Stats.timers_fired);
    tc "cancel is idempotent and stale handles are no-ops" (fun () ->
        let e = mk_engine () in
        let t = Sim.Engine.set_timer e 0 ~delay:2 (fun () -> ()) in
        Sim.Engine.cancel_timer e t;
        Sim.Engine.cancel_timer e t;
        let lc = Sim.Stats.lifecycle (Sim.Engine.stats e) in
        Alcotest.(check int) "counted once" 1 lc.Sim.Stats.timers_cancelled;
        Sim.Engine.run_until e 2;
        (* The slot is reclaimed and may be reused; the stale handle must
           not be able to kill the new occupant. *)
        let fired = ref false in
        ignore (Sim.Engine.set_timer e 0 ~delay:3 (fun () -> fired := true) : Sim.Engine.timer);
        Sim.Engine.cancel_timer e t;
        Sim.Engine.run_until e 10;
        Alcotest.(check bool) "new timer in reused slot fired" true !fired);
    tc "timer lifecycle counters balance: set = fired + cancelled + crash-orphaned" (fun () ->
        let e = timer_mix () in
        let lc = Sim.Stats.lifecycle (Sim.Engine.stats e) in
        Alcotest.(check int) "set" 3 lc.Sim.Stats.timers_set;
        Alcotest.(check int) "fired" 1 lc.Sim.Stats.timers_fired;
        Alcotest.(check int) "cancelled" 1 lc.Sim.Stats.timers_cancelled;
        Alcotest.(check int) "crash-orphaned" 1 lc.Sim.Stats.timers_orphaned;
        Alcotest.(check int) "nothing armed" 0 (Sim.Engine.timer_armed e);
        Alcotest.(check int) "conservation" lc.Sim.Stats.timers_set
          (lc.Sim.Stats.timers_fired + lc.Sim.Stats.timers_cancelled
          + lc.Sim.Stats.timers_orphaned + Sim.Engine.timer_armed e);
        Alcotest.(check int) "all reclaimed" 3 lc.Sim.Stats.timers_reclaimed;
        Alcotest.(check int) "no residual slots" 0 (Sim.Engine.timer_residency e));
    tc "lifecycle view reads the engine.* registry metrics" (fun () ->
        let e = timer_mix () in
        let lc = Sim.Stats.lifecycle (Sim.Engine.stats e) in
        let snap = Obs.Registry.snapshot (Sim.Engine.obs e) in
        let metric name =
          match List.assoc_opt name snap with
          | Some (Obs.Registry.Counter v | Obs.Registry.Gauge v) -> v
          | _ -> Alcotest.failf "%s missing from the registry" name
        in
        List.iter
          (fun (name, v) -> Alcotest.(check int) name v (metric name))
          [
            ("engine.events_executed_total", lc.Sim.Stats.events_executed);
            ("engine.timer_set_total", lc.Sim.Stats.timers_set);
            ("engine.timer_fired_total", lc.Sim.Stats.timers_fired);
            ("engine.timer_cancelled_total", lc.Sim.Stats.timers_cancelled);
            ("engine.timer_orphaned_total", lc.Sim.Stats.timers_orphaned);
            ("engine.timer_reclaimed_total", lc.Sim.Stats.timers_reclaimed);
            ("engine.queue_depth_high_water", lc.Sim.Stats.queue_high_water);
            ("engine.timer_residency_high_water", lc.Sim.Stats.timer_residency_high_water);
          ]);
    tc "every ~phase:0 fires at the current instant, then exactly once per period" (fun () ->
        let e = mk_engine () in
        let fired = ref [] in
        ignore
          (Sim.Engine.every e 0 ~phase:0 ~period:10 (fun () ->
               fired := Sim.Engine.now e :: !fired)
            : unit -> unit);
        Sim.Engine.run_until e 30;
        Alcotest.(check (list int)) "instants" [ 0; 10; 20; 30 ] (List.rev !fired));
    tc "stopping 'every' cancels the armed occurrence" (fun () ->
        let e = mk_engine () in
        let stop = Sim.Engine.every e 0 ~phase:0 ~period:10 (fun () -> ()) in
        Sim.Engine.run_until e 15;
        stop ();
        let lc = Sim.Stats.lifecycle (Sim.Engine.stats e) in
        Alcotest.(check int) "armed occurrence cancelled" 1 lc.Sim.Stats.timers_cancelled;
        Sim.Engine.run_until e 20;
        Alcotest.(check int) "and reclaimed at its deadline" 0 (Sim.Engine.timer_residency e));
    tc "timer table capacity is bounded by peak in-flight timers" (fun () ->
        let e = mk_engine () in
        (* 1000 sequential set/fire rounds never hold more than one timer at
           a time, so the registry must not grow past its first block. *)
        let rec chain k =
          if k > 0 then
            ignore (Sim.Engine.set_timer e 0 ~delay:1 (fun () -> chain (k - 1)) : Sim.Engine.timer)
        in
        chain 1000;
        Sim.Engine.run_until e 1001;
        let lc = Sim.Stats.lifecycle (Sim.Engine.stats e) in
        Alcotest.(check int) "all 1000 set" 1000 lc.Sim.Stats.timers_set;
        Alcotest.(check bool) "capacity stays tiny" true (Sim.Engine.slab_capacity e <= 16));
    tc "same-instant timers and harness events interleave in scheduling order" (fun () ->
        (* Timers live in the timer wheel and harness actions in the event
           wheel; the merge must reproduce global scheduling order, never
           give one source blanket priority. *)
        let e = mk_engine () in
        let log = ref [] in
        let push tag () = log := tag :: !log in
        Sim.Engine.at e 5 (push "event-1");
        ignore (Sim.Engine.set_timer e 0 ~delay:5 (push "timer-1") : Sim.Engine.timer);
        Sim.Engine.at e 5 (push "event-2");
        ignore (Sim.Engine.set_timer e 0 ~delay:5 (push "timer-2") : Sim.Engine.timer);
        Sim.Engine.run_until e 5;
        Alcotest.(check (list string)) "scheduling order"
          [ "event-1"; "timer-1"; "event-2"; "timer-2" ]
          (List.rev !log));
    tc "same-instant timers, self-sends, harness actions and crashes run in scheduling order"
      (fun () ->
        (* All four ways to schedule at the current instant, interleaved
           from inside a running event: every one must run in the order it
           was scheduled, across both wheels. *)
        let e = mk_engine () in
        let log = ref [] in
        let push tag () = log := tag :: !log in
        Sim.Engine.register e ~component:"t" 0 (fun ~src:_ payload ->
            match payload with Ping k -> push (Printf.sprintf "send-%d" k) () | _ -> ());
        Sim.Engine.register e ~component:"t" 1 (fun ~src:_ _ -> push "late-delivery" ());
        Sim.Engine.at e 5 (fun () ->
            ignore (Sim.Engine.set_timer e 0 ~delay:0 (push "timer-1") : Sim.Engine.timer);
            Sim.Engine.send e ~component:"t" ~tag:"self" ~src:0 ~dst:0 (Ping 1);
            Sim.Engine.at e 5 (push "at-1");
            Sim.Engine.schedule_crash e 1 ~at:5;
            (* Scheduled after p2's crash: dropped, never logged. *)
            Sim.Engine.send e ~component:"t" ~tag:"self" ~src:1 ~dst:1 (Ping 0);
            Sim.Engine.at e 5 (fun () -> push (if Sim.Engine.is_alive e 1 then "alive" else "crashed") ());
            Sim.Engine.send e ~component:"t" ~tag:"self" ~src:0 ~dst:0 (Ping 2);
            ignore (Sim.Engine.set_timer e 0 ~delay:0 (push "timer-2") : Sim.Engine.timer);
            Sim.Engine.at e 5 (push "at-2"));
        Sim.Engine.run_until e 5;
        Alcotest.(check (list string)) "scheduling order"
          [ "timer-1"; "send-1"; "at-1"; "crashed"; "send-2"; "timer-2"; "at-2" ]
          (List.rev !log));
    tc "compact shrinks the event slab after a message burst and keeps in-flight messages"
      (fun () ->
        let e = mk_engine ~n:2 ~delay:3 () in
        let got = ref 0 in
        Sim.Engine.register e ~component:"t" 1 (fun ~src:_ _ -> incr got);
        (* The straggler is scheduled first, so it holds slab slot 0 — the
           live high-water once the burst drains. *)
        let straggler = ref false in
        Sim.Engine.at e 50 (fun () -> straggler := true);
        for k = 1 to 100_000 do
          Sim.Engine.send e ~component:"t" ~tag:"burst" ~src:0 ~dst:1 (Ping k)
        done;
        Alcotest.(check int) "in flight" 100_001 (Sim.Engine.pending_events e);
        Alcotest.(check bool) "burst grew the slab" true
          (Sim.Engine.slab_capacity e >= 100_001);
        Sim.Engine.run_until e 3;
        Alcotest.(check int) "burst delivered" 100_000 !got;
        Sim.Engine.compact e;
        Alcotest.(check int) "shrunk to the live high-water" 1 (Sim.Engine.slab_capacity e);
        (* Messages in flight across a compact are still delivered, and
           the slab regrows on demand. *)
        for k = 1 to 40 do
          Sim.Engine.send e ~component:"t" ~tag:"burst" ~src:0 ~dst:1 (Ping k)
        done;
        Sim.Engine.compact e;
        Alcotest.(check bool) "compact keeps pending slots" true
          (Sim.Engine.slab_capacity e >= 41);
        Sim.Engine.run_until e 100;
        Alcotest.(check int) "in-flight messages survived compaction" 100_040 !got;
        Alcotest.(check bool) "straggler survived compaction" true !straggler;
        Alcotest.(check int) "nothing pending" 0 (Sim.Engine.pending_events e);
        Sim.Engine.compact e;
        Alcotest.(check int) "drained slab is empty" 0 (Sim.Engine.slab_capacity e));
    tc "compact shrinks the timer table to live residency" (fun () ->
        let e = mk_engine () in
        (* The straggler is armed first, so it holds slot 0 — the table's
           live high-water after the burst drains. *)
        let fired = ref false in
        ignore (Sim.Engine.set_timer e 0 ~delay:200 (fun () -> fired := true) : Sim.Engine.timer);
        (* A burst of concurrent timers grows the table, then drains. *)
        for i = 0 to 999 do
          ignore (Sim.Engine.set_timer e 0 ~delay:(1 + (i mod 50)) (fun () -> ()) : Sim.Engine.timer)
        done;
        Sim.Engine.run_until e 60;
        Alcotest.(check bool) "burst grew the slab" true (Sim.Engine.slab_capacity e >= 1000);
        Sim.Engine.compact e;
        Alcotest.(check bool) "shrunk to live residency" true (Sim.Engine.slab_capacity e <= 16);
        Sim.Engine.run_until e 250;
        Alcotest.(check bool) "straggler survived compaction" true !fired);
    tc "handles from before compact stay stale after the table regrows" (fun () ->
        let e = mk_engine () in
        let doomed = ref [] in
        for _ = 0 to 99 do
          doomed := Sim.Engine.set_timer e 0 ~delay:1 (fun () -> ()) :: !doomed
        done;
        Sim.Engine.run_until e 2;
        Sim.Engine.compact e;
        Alcotest.(check int) "slab emptied" 0 (Sim.Engine.slab_capacity e);
        (* Regrow the dropped region with fresh timers; the pre-compact
           handles must not be able to cancel any of them. *)
        let fired = ref 0 in
        for _ = 0 to 99 do
          ignore (Sim.Engine.set_timer e 0 ~delay:3 (fun () -> incr fired) : Sim.Engine.timer)
        done;
        List.iter (Sim.Engine.cancel_timer e) !doomed;
        Sim.Engine.run_until e 10;
        Alcotest.(check int) "stale cancels were no-ops" 100 !fired);
    tc "stale timer handles cancel nothing in a slot reused by a message, an action, a timer"
      (fun () ->
        (* At most one event is ever pending, so the slab never grows past
           one slot: the message, the action and the second timer all
           reuse the stale handle's slot, and each cancel through that
           handle must leave the new occupant alone. *)
        List.iter
          (fun cancelled ->
            let e = mk_engine ~n:2 ~delay:1 () in
            let log = ref [] in
            let push tag () = log := tag :: !log in
            Sim.Engine.register e ~component:"t" 1 (fun ~src:_ _ -> push "message" ());
            let stale = Sim.Engine.set_timer e 0 ~delay:1 (push "first timer") in
            if cancelled then Sim.Engine.cancel_timer e stale;
            Sim.Engine.run_until e 1;
            let reuse schedule ~until =
              schedule ();
              Alcotest.(check int) "one slot, reused" 1 (Sim.Engine.slab_capacity e);
              Sim.Engine.cancel_timer e stale;
              Sim.Engine.run_until e until
            in
            reuse ~until:2 (fun () ->
                Sim.Engine.send e ~component:"t" ~tag:"m" ~src:0 ~dst:1 (Ping 0));
            reuse ~until:3 (fun () -> Sim.Engine.at e 3 (push "action"));
            reuse ~until:4 (fun () ->
                ignore (Sim.Engine.set_timer e 0 ~delay:1 (push "second timer") : Sim.Engine.timer));
            Alcotest.(check (list string)) "every reuser ran"
              ((if cancelled then [] else [ "first timer" ]) @ [ "message"; "action"; "second timer" ])
              (List.rev !log);
            let lc = Sim.Stats.lifecycle (Sim.Engine.stats e) in
            Alcotest.(check int) "cancels counted" (if cancelled then 1 else 0)
              lc.Sim.Stats.timers_cancelled;
            Alcotest.(check int) "set = fired + cancelled + orphaned + armed" lc.Sim.Stats.timers_set
              (lc.Sim.Stats.timers_fired + lc.Sim.Stats.timers_cancelled
             + lc.Sim.Stats.timers_orphaned + Sim.Engine.timer_armed e);
            Alcotest.(check int) "set = reclaimed + resident" lc.Sim.Stats.timers_set
              (lc.Sim.Stats.timers_reclaimed + Sim.Engine.timer_residency e))
          [ false; true ]);
    tc "stopping 'every' after its slot was reused cancels nothing" (fun () ->
        let e = mk_engine ~n:2 () in
        let stop = Sim.Engine.every e 0 ~phase:1 ~period:1 (fun () -> ()) in
        Sim.Engine.schedule_crash e 0 ~at:1;
        Sim.Engine.run_until e 1;
        (* p0's next occurrence holds one slot; this action takes the
           other, which the crash freed. *)
        let kept = ref false in
        Sim.Engine.at e 50 (fun () -> kept := true);
        Sim.Engine.run_until e 2;
        (* The occurrence popped orphaned and freed its slot: with the
           action still pending and the slab still two slots, this timer
           sits in the slot the periodic timer last held. *)
        let fired = ref false in
        ignore (Sim.Engine.set_timer e 1 ~delay:1 (fun () -> fired := true) : Sim.Engine.timer);
        Alcotest.(check int) "two slots, one reused" 2 (Sim.Engine.slab_capacity e);
        stop ();
        Sim.Engine.run_until e 50;
        Alcotest.(check bool) "the reusing timer fired" true !fired;
        Alcotest.(check bool) "the action ran" true !kept;
        let lc = Sim.Stats.lifecycle (Sim.Engine.stats e) in
        Alcotest.(check int) "nothing cancelled" 0 lc.Sim.Stats.timers_cancelled;
        Alcotest.(check int) "one occurrence orphaned" 1 lc.Sim.Stats.timers_orphaned;
        Alcotest.(check int) "set = fired + cancelled + orphaned + armed" lc.Sim.Stats.timers_set
          (lc.Sim.Stats.timers_fired + lc.Sim.Stats.timers_cancelled
         + lc.Sim.Stats.timers_orphaned + Sim.Engine.timer_armed e);
        Alcotest.(check int) "set = reclaimed + resident" lc.Sim.Stats.timers_set
          (lc.Sim.Stats.timers_reclaimed + Sim.Engine.timer_residency e));
    Test_util.qcheck ~count:80 ~name:"random timer workloads conserve the lifecycle ledger"
      QCheck2.Gen.(tup2 (int_range 0 10_000) (int_range 1 6))
      (fun (seed, n) ->
        (* A random mix of one-shots, periodics, cancellations and one
           crash; the conservation law must hold mid-run and at the end:
           set = fired + cancelled + orphaned + armed, and every set timer
           is reclaimed or still resident. *)
        let e = Sim.Engine.create ~seed ~n ~link:(Sim.Link.synchronous ~delay:1) () in
        let rng = Sim.Rng.create ~seed:(seed + 1) in
        let cancels = ref [] in
        for _ = 1 to 40 do
          let p = Sim.Rng.int rng ~bound:n in
          match Sim.Rng.int rng ~bound:3 with
          | 0 ->
            let delay = Sim.Rng.int rng ~bound:64 in
            let t = Sim.Engine.set_timer e p ~delay (fun () -> ()) in
            if Sim.Rng.int rng ~bound:2 = 0 then cancels := t :: !cancels
          | 1 ->
            let period = 1 + Sim.Rng.int rng ~bound:7 in
            ignore (Sim.Engine.every e p ~period (fun () -> ()) : unit -> unit)
          | _ -> List.iter (Sim.Engine.cancel_timer e) !cancels
        done;
        Sim.Engine.schedule_crash e (Sim.Rng.int rng ~bound:n) ~at:(1 + Sim.Rng.int rng ~bound:30);
        let holds () =
          let lc = Sim.Stats.lifecycle (Sim.Engine.stats e) in
          lc.Sim.Stats.timers_set
          = lc.Sim.Stats.timers_fired + lc.Sim.Stats.timers_cancelled
            + lc.Sim.Stats.timers_orphaned + Sim.Engine.timer_armed e
          && lc.Sim.Stats.timers_set
             = lc.Sim.Stats.timers_reclaimed + Sim.Engine.timer_residency e
        in
        let mid = ref true in
        for h = 1 to 10 do
          Sim.Engine.run_until e (h * 8);
          mid := !mid && holds ()
        done;
        !mid && holds ());
    tc "a message costs at most 2 minor words, its Link.Deliver_at" (fun () ->
        let n = 100 in
        let e = Sim.Engine.create ~n ~link:(Sim.Link.reliable ()) () in
        for p = 0 to n - 1 do
          Sim.Engine.register e ~component:"sink" p (fun ~src:_ _ -> ())
        done;
        let round () =
          for src = 0 to n - 1 do
            Sim.Engine.send_to_all_others e ~component:"sink" ~tag:"blank" ~src Sim.Payload.Blank
          done;
          Sim.Engine.run_until e (Sim.Engine.now e + 10)
        in
        (* The first round interns the route and grows the event slab,
           the wheel and the clock row to their steady size. *)
        round ();
        let rounds = 10 in
        let events_before = Sim.Trace.length (Sim.Engine.trace e) in
        let before = Gc.minor_words () in
        for _ = 1 to rounds do
          round ()
        done;
        let words = Gc.minor_words () -. before in
        let messages = rounds * n * (n - 1) in
        Alcotest.(check int) "all delivered" ((rounds + 1) * n * (n - 1))
          (Sim.Stats.total (Sim.Engine.stats e)).Sim.Stats.delivered;
        (* Beyond the messages, the trace takes a new 2^14-event Bigarray
           chunk now and then: its few-word header is the only other
           minor allocation, amortized over the chunk. *)
        let events = Sim.Trace.length (Sim.Engine.trace e) - events_before in
        let chunk_headers = 8 * (1 + (events / 16_384)) in
        let excess = words -. float_of_int ((2 * messages) + chunk_headers) in
        if excess > 0.0 then
          Alcotest.failf "%.3f minor words per message (want <= 2 plus %d for trace chunks)"
            (words /. float_of_int messages) chunk_headers);
    tc "create rejects more processes than a packed pid can name" (fun () ->
        let n = Sim.Trace.max_pid + 2 in
        match Sim.Engine.create ~n ~link:(Sim.Link.synchronous ~delay:1) () with
        | _ -> Alcotest.failf "accepted n = %d" n
        | exception Invalid_argument _ -> ());
    tc "Shard remnant accepts only the sequential settings" (fun () ->
        Sim.Shard.set_default_shards 1;
        Sim.Shard.set_default_profile false;
        Alcotest.check_raises "shards 2"
          (Invalid_argument "Shard.set_default_shards: the engine is sequential only")
          (fun () -> Sim.Shard.set_default_shards 2);
        Alcotest.check_raises "profile true"
          (Invalid_argument "Shard.set_default_profile: the engine has no profiler")
          (fun () -> Sim.Shard.set_default_profile true));
  ]

(* ------------------------------------------------------------------ *)
(* Stats, Fault, Trace, Signal                                        *)
(* ------------------------------------------------------------------ *)

let stats_tests =
  [
    tc "per-component and per-tag counts" (fun () ->
        let s = Sim.Stats.create (Obs.Registry.create ()) in
        Sim.Stats.count_send (Sim.Stats.cell s ~component:"a" ~tag:"x");
        Sim.Stats.count_send (Sim.Stats.cell s ~component:"a" ~tag:"y");
        Sim.Stats.count_deliver (Sim.Stats.cell s ~component:"a" ~tag:"x");
        Sim.Stats.count_send (Sim.Stats.cell s ~component:"b" ~tag:"x");
        let snap = Sim.Stats.snapshot s in
        Alcotest.(check int) "a sent" 2 (Sim.Stats.component_counts s ~component:"a").Sim.Stats.sent;
        Alcotest.(check (option int)) "a/x delivered" (Some 1)
          (List.find_map
             (fun (c, tag, v) ->
               if String.equal c "a" && String.equal tag "x" then Some v.Sim.Stats.delivered
               else None)
             snap);
        Alcotest.(check int) "total sent" 3 (Sim.Stats.total s).Sim.Stats.sent;
        Alcotest.(check (list string))
          "components" [ "a"; "b" ]
          (List.sort_uniq String.compare (List.map (fun (c, _, _) -> c) snap)));
    tc "snapshots measure windows" (fun () ->
        let s = Sim.Stats.create (Obs.Registry.create ()) in
        Sim.Stats.count_send (Sim.Stats.cell s ~component:"a" ~tag:"x");
        let snap = Sim.Stats.snapshot s in
        Sim.Stats.count_send (Sim.Stats.cell s ~component:"a" ~tag:"x");
        Sim.Stats.count_send (Sim.Stats.cell s ~component:"a" ~tag:"z");
        Alcotest.(check int) "window" 2 (Sim.Stats.sent_since s snap ~component:"a");
        Alcotest.(check int) "total window" 2
          ((Sim.Stats.total s).Sim.Stats.sent
          - List.fold_left (fun acc (_, _, v) -> acc + v.Sim.Stats.sent) 0 snap));
  ]

let fault_tests =
  [
    tc "faulty and correct partition the processes" (fun () ->
        let sched = Sim.Fault.crashes [ (1, 10); (3, 20) ] in
        Alcotest.(check (list int)) "faulty" [ 1; 3 ] (Sim.Pid.Set.elements (Sim.Fault.faulty sched));
        Alcotest.(check (list int)) "correct" [ 0; 2; 4 ]
          (Sim.Pid.Set.elements (Sim.Fault.correct ~n:5 sched)));
    tc "duplicate victims rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Sim.Fault.crashes [ (1, 10); (1, 20) ]);
             false
           with Invalid_argument _ -> true));
    tc "last_crash_time" (fun () ->
        Alcotest.(check int) "none" 0 (Sim.Fault.last_crash_time Sim.Fault.none);
        Alcotest.(check int) "max" 20 (Sim.Fault.last_crash_time [ (1, 10); (3, 20) ]));
    Test_util.qcheck ~count:200 ~name:"random_minority keeps a majority correct"
      QCheck2.Gen.(tup2 (int_range 1 12) (int_range 0 100_000))
      (fun (n, seed) ->
        let rng = Sim.Rng.create ~seed in
        let sched = Sim.Fault.random_minority rng ~n ~latest:100 in
        2 * Sim.Pid.Set.cardinal (Sim.Fault.faulty sched) < n);
  ]

let signal_tests =
  [
    tc "subscribers are called in order" (fun () ->
        let s = Sim.Signal.create () in
        let log = ref [] in
        Sim.Signal.subscribe s (fun x -> log := ("a", x) :: !log);
        Sim.Signal.subscribe s (fun x -> log := ("b", x) :: !log);
        Sim.Signal.emit s 1;
        Alcotest.(check (list (pair string int))) "order" [ ("b", 1); ("a", 1) ] !log;
        Alcotest.(check int) "count" 2 (Sim.Signal.subscriber_count s));
  ]

let trace_tests =
  [
    tc "dump writes one pretty-printed event per line" (fun () ->
        let t = Sim.Trace.create () in
        Sim.Trace.record t (Sim.Trace.Crash { at = 3; pid = 1 });
        Sim.Trace.record t (Sim.Trace.Propose { at = 5; pid = 0; value = 7 });
        let file = Filename.temp_file "ecfd" ".trace" in
        let oc = open_out file in
        Sim.Trace.dump t oc;
        close_out oc;
        let ic = open_in file in
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> close_in ic);
        Sys.remove file;
        Alcotest.(check int) "two lines" 2 (List.length !lines);
        Alcotest.(check bool) "crash line carries seq/lc stamp" true
          (List.exists (fun l -> l = "#0 @1 [t=3] crash p2") !lines));
    tc "accessors filter and order events" (fun () ->
        let t = Sim.Trace.create () in
        Sim.Trace.record t (Sim.Trace.Propose { at = 0; pid = 0; value = 7 });
        Sim.Trace.record t (Sim.Trace.Crash { at = 3; pid = 1 });
        Sim.Trace.record t (Sim.Trace.Decide { at = 9; pid = 0; value = 7; round = 2 });
        Sim.Trace.record t
          (Sim.Trace.Fd_view
             { at = 5; pid = 0; component = "x"; suspected = Sim.Pid.Set.empty; trusted = Some 1 });
        Alcotest.(check int) "length" 4 (Sim.Trace.length t);
        Alcotest.(check (list (pair int int))) "crashes" [ (1, 3) ] (Sim.Trace.crashes t);
        Alcotest.(check (list (pair int int))) "proposals" [ (0, 7) ] (Sim.Trace.proposals t);
        Alcotest.(check int) "decisions" 1 (List.length (Sim.Trace.decisions t));
        Alcotest.(check int) "fd views" 1 (List.length (Sim.Trace.fd_views ~component:"x" t));
        Alcotest.(check int) "fd views other comp" 0
          (List.length (Sim.Trace.fd_views ~component:"y" t)));
  ]

(* Packed-storage round trips: traces built from every [body]
   constructor, with pids at the packing limit, extreme ints and strings
   made fresh per event, must read back equal through every reader. *)

let pick st a = a.(Random.State.int st (Array.length a))

let gen_pid st =
  pick st [| 0; 1; Random.State.int st 64; Sim.Trace.max_pid; Sim.Trace.max_pid - 1 |]

let gen_int st =
  pick st
    [| 0; 1; -1; Random.State.int st 8; min_int; max_int; Random.State.full_int st max_int;
       -Random.State.full_int st max_int |]

let gen_string st =
  pick st
    [| "ec_to_p"; ""; "leader_s"; Printf.sprintf "estimate.r%d" (Random.State.int st 3000);
       String.make (Random.State.int st 4) 'x' ^ "/"; "q\"uote\n" |]

let gen_body st : Sim.Trace.body =
  let at = gen_int st in
  match Random.State.int st 10 with
  | 0 ->
    Send
      { at; src = gen_pid st; dst = gen_pid st; msg = gen_int st; component = gen_string st;
        tag = gen_string st }
  | 1 ->
    Deliver
      { at; src = gen_pid st; dst = gen_pid st; msg = gen_int st; component = gen_string st;
        tag = gen_string st }
  | 2 ->
    Drop
      { at; src = gen_pid st; dst = gen_pid st; msg = gen_int st; component = gen_string st;
        tag = gen_string st; reason = gen_string st }
  | 3 -> Crash { at; pid = gen_pid st }
  | 4 ->
    Fd_view
      { at; pid = gen_pid st; component = gen_string st;
        suspected = Sim.Pid.set_of_list (List.init (Random.State.int st 4) (fun _ -> gen_pid st));
        trusted = (if Random.State.bool st then None else Some (gen_pid st)) }
  | 5 -> Propose { at; pid = gen_pid st; value = gen_int st }
  | 6 -> Decide { at; pid = gen_pid st; value = gen_int st; round = gen_int st }
  | 7 -> Note { at; pid = gen_pid st; tag = gen_string st; detail = gen_string st }
  | 8 ->
    Span_begin
      { at; pid = gen_pid st; component = gen_string st; span = gen_int st; name = gen_string st }
  | _ ->
    Span_end
      { at; pid = gen_pid st; component = gen_string st; span = gen_int st; name = gen_string st }

(* Structural equality, with the suspected set compared by its elements. *)
let canon (b : Sim.Trace.body) =
  match b with
  | Fd_view { at; pid; component; suspected; trusted } ->
    `View (at, pid, component, Sim.Pid.Set.elements suspected, trusted)
  | b -> `Other b

let event_t =
  Alcotest.testable Sim.Trace.pp_event (fun (a : Sim.Trace.event) (b : Sim.Trace.event) ->
      a.seq = b.seq && a.lc = b.lc && canon a.body = canon b.body)

(* The clock rules of trace.mli, restated over a body list. *)
let reference_lcs bodies =
  let clocks = Hashtbl.create 16 and sent = Hashtbl.create 16 in
  let clock p = Option.value ~default:0 (Hashtbl.find_opt clocks p) in
  let set p c =
    Hashtbl.replace clocks p c;
    c
  in
  let take msg =
    let c = Option.value ~default:0 (Hashtbl.find_opt sent msg) in
    Hashtbl.remove sent msg;
    c
  in
  List.map
    (fun (b : Sim.Trace.body) ->
      match b with
      | Send { src; msg; _ } ->
        let c = set src (clock src + 1) in
        if msg >= 0 then Hashtbl.replace sent msg c;
        c
      | Deliver { dst; msg; _ } ->
        let s = take msg in
        set dst (Stdlib.max (clock dst) s + 1)
      | Drop { msg; _ } -> take msg
      | b ->
        let p = Option.get (Sim.Trace.pid_of b) in
        set p (clock p + 1))
    bodies

let kind_of (b : Sim.Trace.body) : Sim.Trace.Kind.t =
  match b with
  | Send _ -> Send
  | Deliver _ -> Deliver
  | Drop _ -> Drop
  | Crash _ -> Crash
  | Fd_view _ -> Fd_view
  | Propose _ -> Propose
  | Decide _ -> Decide
  | Note _ -> Note
  | Span_begin _ -> Span_begin
  | Span_end _ -> Span_end

let all_kinds =
  Sim.Trace.Kind.
    [ Send; Deliver; Drop; Crash; Fd_view; Propose; Decide; Note; Span_begin; Span_end ]

let check_round_trip bodies =
  let t = Sim.Trace.create () in
  List.iter (Sim.Trace.record t) bodies;
  let expected =
    List.mapi (fun seq (lc, body) -> { Sim.Trace.seq; lc; body })
      (List.combine (reference_lcs bodies) bodies)
  in
  let evs = Alcotest.list event_t in
  Alcotest.(check int) "length" (List.length bodies) (Sim.Trace.length t);
  Alcotest.check evs "events" expected (Sim.Trace.events t);
  let iterated = ref [] in
  Sim.Trace.iter t (fun e -> iterated := e :: !iterated);
  Alcotest.check evs "iter" expected (List.rev !iterated);
  Alcotest.check evs "to_seq" expected (List.of_seq (Sim.Trace.to_seq t));
  let filtered kinds =
    List.filter (fun (e : Sim.Trace.event) -> List.mem (kind_of e.body) kinds) expected
  in
  List.iter
    (fun kinds ->
      let got = ref [] in
      Sim.Trace.iter_kinds t kinds (fun e -> got := e :: !got);
      Alcotest.check evs "iter_kinds" (filtered kinds) (List.rev !got))
    ([] :: all_kinds :: Sim.Trace.Kind.[ Crash; Fd_view ] :: List.map (fun k -> [ k ]) all_kinds);
  let sends = ref [] in
  Sim.Trace.iter_sends t (fun ~at ~src ~dst ~msg ~component ~tag ->
      sends := (at, src, dst, msg, component, tag) :: !sends);
  Alcotest.(check bool) "iter_sends" true
    (List.rev !sends
    = List.filter_map
        (fun (e : Sim.Trace.event) ->
          match e.body with
          | Send { at; src; dst; msg; component; tag } -> Some (at, src, dst, msg, component, tag)
          | _ -> None)
        expected);
  let bodies_of kinds = List.map (fun (e : Sim.Trace.event) -> e.body) (filtered kinds) in
  Alcotest.(check (list (pair int int))) "crashes"
    (List.filter_map
       (function Sim.Trace.Crash { at; pid } -> Some (pid, at) | _ -> None)
       (bodies_of [ Crash ]))
    (Sim.Trace.crashes t);
  Alcotest.(check (list (pair int int))) "proposals"
    (List.filter_map
       (function Sim.Trace.Propose { pid; value; _ } -> Some (pid, value) | _ -> None)
       (bodies_of [ Propose ]))
    (Sim.Trace.proposals t);
  Alcotest.(check bool) "decisions" true
    (List.filter_map
       (function
         | Sim.Trace.Decide { at; pid; value; round } -> Some (pid, value, round, at) | _ -> None)
       (bodies_of [ Decide ])
    = Sim.Trace.decisions t);
  List.iter
    (fun component ->
      let views =
        List.map
          (fun (at, pid, s, trusted) -> (at, pid, Sim.Pid.Set.elements s, trusted))
          (Sim.Trace.fd_views ~component t)
      in
      Alcotest.(check bool) ("fd_views " ^ component) true
        (List.filter_map
           (function
             | Sim.Trace.Fd_view { at; pid; component = c; suspected; trusted }
               when String.equal c component ->
               Some (at, pid, Sim.Pid.Set.elements suspected, trusted)
             | _ -> None)
           (bodies_of [ Fd_view ])
        = views))
    [ "ec_to_p"; ""; "leader_s"; "absent" ]

(* An engine run on a lossy link with a crash: every process sends to all
   others each tick and opens a span per delivery, so the trace holds
   sends, deliveries, both kinds of drop ("lossy" and "destination
   crashed"), a crash and spans, all written by the engine's scalar
   writers. *)
type Sim.Payload.t += Hop

let lossy_crash_run seed =
  let n = 5 in
  let link =
    Sim.Link.fair_lossy ~drop_probability:0.3 ~underlying:(Sim.Link.reliable ~max_delay:4 ())
  in
  let e = Sim.Engine.create ~seed ~n ~link () in
  for p = 0 to n - 1 do
    Sim.Engine.register e ~component:"hop" p (fun ~src:_ _ ->
        let span = Sim.Engine.open_span e p ~component:"hop" ~name:"got" in
        Sim.Engine.close_span e p ~component:"hop" ~name:"got" ~span
          ~opened_at:(Sim.Engine.now e));
    ignore
      (Sim.Engine.every e p ~period:3 (fun () ->
           Sim.Engine.send_to_all_others e ~component:"hop" ~tag:"hop" ~src:p Hop)
        : unit -> unit)
  done;
  Sim.Engine.schedule_crash e (seed mod n) ~at:(10 + (seed mod 17));
  Sim.Engine.run_until e 60;
  Sim.Engine.trace e

let drop_reasons trace =
  List.sort_uniq String.compare
    (List.filter_map
       (fun (ev : Sim.Trace.event) ->
         match ev.body with Drop { reason; _ } -> Some reason | _ -> None)
       (Sim.Trace.events trace))

let packed_trace_tests =
  [
    Test_util.qcheck ~count:40 ~name:"engine writers and Trace.record stamp identically"
      Test_util.Gen.seed (fun seed ->
        let trace = lossy_crash_run seed in
        let evs = Sim.Trace.events trace in
        let again = Sim.Trace.create () in
        List.iter (fun (ev : Sim.Trace.event) -> Sim.Trace.record again ev.body) evs;
        Alcotest.(check (list string)) "both drop reasons occur"
          [ "destination crashed"; "lossy" ] (drop_reasons trace);
        Alcotest.check (Alcotest.list event_t) "(seq, lc, body)" evs (Sim.Trace.events again);
        Alcotest.(check string) "JSONL"
          (Sim.Trace_export.jsonl_string trace)
          (Sim.Trace_export.jsonl_string again);
        true);
    Test_util.qcheck ~count:60 ~name:"every reader returns what was recorded"
      QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 600))
      (fun (seed, len) ->
        let st = Random.State.make [| seed |] in
        check_round_trip (List.init len (fun _ -> gen_body st));
        true);
    tc "round trip across chunk boundaries" (fun () ->
        let st = Random.State.make [| 16 |] in
        check_round_trip (List.init 40_000 (fun _ -> gen_body st)));
    tc "out-of-range fields raise and leave the trace unchanged" (fun () ->
        let t = Sim.Trace.create () in
        let over = Sim.Trace.max_pid + 1 in
        let message src dst : Sim.Trace.body =
          Send { at = 0; src; dst; msg = 0; component = "c"; tag = "t" }
        in
        List.iter
          (fun body ->
            match Sim.Trace.record t body with
            | () -> Alcotest.failf "accepted %a" Sim.Trace.pp_body body
            | exception Invalid_argument _ -> ())
          [
            message (-1) 0; message 0 over; message max_int 0;
            Deliver { at = 0; src = over; dst = 0; msg = 0; component = "c"; tag = "t" };
            Drop { at = 0; src = 0; dst = -1; msg = 0; component = "c"; tag = "t"; reason = "r" };
            Crash { at = 0; pid = over };
            Fd_view
              { at = 0; pid = 0; component = "c"; suspected = Sim.Pid.Set.empty;
                trusted = Some over };
            Propose { at = 0; pid = -1; value = 0 };
            Decide { at = 0; pid = over; value = 0; round = 0 };
            Note { at = 0; pid = over; tag = "t"; detail = "d" };
            Span_begin { at = 0; pid = -1; component = "c"; span = 0; name = "n" };
            Span_end { at = 0; pid = over; component = "c"; span = 0; name = "n" };
          ];
        Alcotest.(check int) "nothing recorded" 0 (Sim.Trace.length t);
        Sim.Trace.record t (Crash { at = 0; pid = 0 });
        Alcotest.(check (list int)) "no clock ticked" [ 1 ]
          (List.map (fun (e : Sim.Trace.event) -> e.lc) (Sim.Trace.events t)));
    tc "the label table is bounded and says so" (fun () ->
        let t = Sim.Trace.create () in
        let note tag : Sim.Trace.body = Note { at = 0; pid = 0; tag; detail = "" } in
        (* Label 0, the empty triple, is taken by every trace. *)
        for i = 1 to Sim.Trace.max_labels - 1 do
          Sim.Trace.record t (note (string_of_int i))
        done;
        (match Sim.Trace.record t (note "one too many") with
        | () -> Alcotest.fail "label table overflowed silently"
        | exception Invalid_argument _ -> ());
        Sim.Trace.record t (note "1");
        Alcotest.(check int) "known labels still record" Sim.Trace.max_labels (Sim.Trace.length t));
    tc "recording 10^5 Send/Deliver pairs promotes < 2 words per event" (fun () ->
        let t = Sim.Trace.create () in
        let pairs = 100_000 in
        let before = (Gc.quick_stat ()).Gc.promoted_words in
        for i = 0 to pairs - 1 do
          let src = i land 7 in
          Sim.Trace.record t (Send { at = i; src; dst = 8; msg = i; component = "c"; tag = "alive" });
          Sim.Trace.record t
            (Deliver { at = i + 1; src; dst = 8; msg = i; component = "c"; tag = "alive" })
        done;
        let promoted = (Gc.quick_stat ()).Gc.promoted_words -. before in
        let per_event = promoted /. float_of_int (2 * pairs) in
        Alcotest.(check int) "length" (2 * pairs) (Sim.Trace.length t);
        if per_event >= 2.0 then
          Alcotest.failf "%.2f promoted words per event: the trace holds boxed events" per_event);
  ]

let suites =
  [
    ("sim.pid", pid_tests);
    ("sim.rng", rng_tests);
    ("sim.event_queue", event_queue_tests);
    ("sim.timer_wheel", timer_wheel_tests);
    ("sim.link", link_tests);
    ("sim.engine", engine_tests);
    ("sim.stats", stats_tests);
    ("sim.fault", fault_tests);
    ("sim.signal", signal_tests);
    ("sim.trace", trace_tests);
    ("sim.trace.packed", packed_trace_tests);
  ]
