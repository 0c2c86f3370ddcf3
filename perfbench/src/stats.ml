(** Sample buffers and the percentile rule: a percentile is reported only
    when at least ten samples lie beyond it (≥20 for a p50, ≥100 for a
    p90, ≥1000 for a p99). *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 256 0.; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0. in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n

let iter f t =
  for i = 0 to t.n - 1 do
    f t.a.(i)
  done
let sum t = Array.fold_left ( +. ) 0. (Array.sub t.a 0 t.n)

(** Fewest samples that leave ten beyond the [q]-quantile. *)
let min_samples q = int_of_float (Float.ceil ((10. /. (1. -. q)) -. 1e-9))

(** Nearest-rank [q]-quantile of a sorted array, or [None] when the
    sample is too small for the percentile rule. *)
let quantile_sorted (s : float array) q =
  let n = Array.length s in
  if n < min_samples q then None
  else Some s.(max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort compare s;
  s

let quantile t q = quantile_sorted (sorted t) q

(** Median of any non-empty sample, without the percentile rule (for
    repeated set-up times and per-span medians); 0 when empty. *)
let median_sorted s =
  let n = Array.length s in
  if n = 0 then 0. else if n land 1 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let median t = median_sorted (sorted t)

(** Median of the last [last] samples (all of them by default). *)
let median_last ?last t =
  let k = match last with Some k -> min k t.n | None -> t.n in
  let s = Array.sub t.a (t.n - k) k in
  Array.sort compare s;
  median_sorted s
