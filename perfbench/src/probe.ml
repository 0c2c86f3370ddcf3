(** The host-speed probe. The machine the benchmark runs on may be shared,
    and how fast it runs the same code then drifts by 20–40% over seconds
    to minutes with the load its neighbours put on the cores, caches and
    memory. The probe is a fixed piece of work that uses only the standard
    library: a stream of stores into an 8 MiB buffer outside the OCaml
    heap, each through the runtime's generic Bigarray accessor ([kernel]
    is polymorphic in the buffer's kind, so every store is a call). It
    allocates nothing, so the workload's heap and GC do not change its
    cost, and each probe continues where the last one stopped, so the
    probes cycle through the whole buffer.

    Why this kernel: on this kind of host the slow phases hit the
    library's allocating, call-heavy code far harder than a tight loop
    over a small table. Over two minutes of cold [count] requests and
    single writes timed beside a set of candidate probes on a shared
    2-vCPU Intel Xeon VM, the store stream followed the requests' slowdown
    best (correlation 0.45–0.77 per request, against 0.24–0.43 for a
    32 KiB table walk), and dividing by it cut the spread of 5-s medians
    from 0.12–0.21 to 0.05–0.07.

    The benchmark runs it every {!Harness.probe_every_ns} of the stream and
    a few times after each set-up, and reports every end-to-end time at the
    reference speed: each latency sample is divided by the {!scale} of
    the probes run just before it, each set-up time by that of the probes
    run right after it. The probe time itself is a per-layer metric
    ([host.probe_us]). *)

(** Probe time at the reference speed, about what an uncontended 2-vCPU
    Intel Xeon VM takes. *)
let ref_ns = 700_000.

type 'k buffer = (int, 'k, Bigarray.c_layout) Bigarray.Array1.t

let buffer : Bigarray.int_elt buffer = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 20)
let stores = 100_000
let pos = ref 0

let kernel (buf : 'k buffer) =
  let m = Bigarray.Array1.dim buf in
  let j = ref !pos in
  for i = 1 to stores do
    Bigarray.Array1.unsafe_set buf !j i;
    incr j;
    if !j = m then j := 0
  done;
  pos := !j;
  Bigarray.Array1.unsafe_get buf 0

let sink = ref 0
let _ = Bigarray.Array1.fill buffer 0

(** Run the probe once and add its time (ns) to [samples]. *)
let run samples =
  let t0 = Clock.now_ns () in
  sink := !sink + kernel buffer;
  Stats.add samples (float_of_int (Clock.now_ns () - t0))

(** How much slower than the reference the probe ran over the last [last]
    probes in [samples] (all of them by default); 1 before any probe ran. *)
let slowdown ?last samples =
  if Stats.count samples = 0 then 1. else Stats.median_last ?last samples /. ref_ns

(* How much of the probe's slowdown the requests share. Within one run
   the two move together, but from one busy period of the host to another
   the probe slows more than the requests do: over two passes of ten runs
   per workload, some 40 minutes apart, dividing by the whole slowdown
   left the runs of a pass within 0.13 of each other (set-up aside; raw:
   up to 0.38) but moved the medians of a pass by up to 0.23, more than
   the raw ones moved; with three quarters of it both stayed within
   0.17. *)
let elasticity = 0.75

(** What a time measured beside these probes is divided by (a rate
    multiplied by) to give it at the reference speed: the slowdown to the
    power {!elasticity}. *)
let scale ?last samples = slowdown ?last samples ** elasticity
