(* Order statistics of one metric's samples.

   The host's speed drifts over seconds, so a slow phase covering part of
   a run would move a plain quantile, above all a tail one.  The samples,
   in measurement order, are therefore cut into up to [max_blocks]
   consecutive blocks of at least [min_block] samples; the reported value
   is the median over blocks of each block's quantile.  A slowdown
   spanning less than half the run moves it little.  Runs with fewer
   than 2 * [min_block] samples form one block: the plain quantile.
   Quantiles interpolate linearly between closest ranks. *)

type t = {
  value : float;
  samples : int;
  q1 : float;  (** Quartiles of all samples. *)
  q3 : float;
}

let max_blocks = 10
let min_block = 20

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = Stdlib.min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* [at] is the quantile reported: 0.5 for a median, 0.9 for a p90. *)
let of_samples ~at xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  let blocks = Stdlib.max 1 (Stdlib.min max_blocks (n / min_block)) in
  let block k =
    let lo = k * n / blocks and hi = (k + 1) * n / blocks in
    quantile (sorted (Array.sub a lo (hi - lo))) at
  in
  let all = sorted a in
  {
    value = quantile (sorted (Array.init blocks block)) 0.5;
    samples = n;
    q1 = quantile all 0.25;
    q3 = quantile all 0.75;
  }
