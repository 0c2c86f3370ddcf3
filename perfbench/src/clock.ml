(** The benchmark's own monotonic nanosecond clock ([clock_gettime
    (CLOCK_MONOTONIC)] through a C stub). The library's telemetry keeps
    its default wall clock in untraced runs; the traced run installs this
    clock with [Obs.set_clock] so in-program spans share its time base. *)

external now_ns : unit -> (int[@untagged]) = "perfbench_now_ns_byte" "perfbench_now_ns"
[@@noalloc]

let now_f () = float_of_int (now_ns ())

(** Read the clock [reads] times back to back: [Ok tick] with the
    smallest non-zero step seen, or [Error] when it ever went backwards or
    never resolved below a microsecond. *)
let check ?(reads = 20_000) () =
  let prev = ref (now_ns ()) and tick = ref max_int and backwards = ref false in
  for _ = 1 to reads do
    let t = now_ns () in
    if t < !prev then backwards := true
    else if t > !prev then tick := min !tick (t - !prev);
    prev := t
  done;
  if !backwards then Error "monotonic clock went backwards"
  else if !tick >= 1000 then Error (Printf.sprintf "clock step %d ns is not below 1 us" !tick)
  else Ok !tick
