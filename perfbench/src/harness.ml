(** The closed loop shared by every workload: one client issues an
    operation, waits for it, checks the answer, and issues the next.

    Every operation goes through {!exec}, which counts it as attempted and
    counts a raised exception — a typed [Robust] error or anything else —
    as failed; {!check} counts a wrong answer as failed. Nothing is
    retried, skipped or redrawn.

    In a traced run the stream alternates untraced and traced blocks of
    {!block_ns}: latency and throughput come from the untraced blocks,
    the per-layer ledger from the traced ones, and the throughput gap
    between the two is the cost of tracing itself.

    The host-speed probe ({!Probe}) runs every {!probe_every_ns} of the
    stream and a few times after each set-up, outside the timed work.
    Latency samples and set-up times are kept at the reference host speed:
    divided by the {!Probe.scale} of the last {!recent_probes} probes. *)

let block_ns = 250_000_000
let probe_every_ns = 50_000_000
let probes_per_setup = 5
let recent_probes = 5

type ctx = {
  trace : bool;
  seconds : float;
  seed : int;
  mutable inject : bool;  (** corrupt the next answer check (tests the oracles) *)
  mutable attempted : int;
  mutable failed : int;
  mutable first_failure : string option;
  mutable next_id : int;
  ledger : Ledger.t;
  mutable traced : bool;  (** is the current block traced *)
  mutable resume : int;  (** stream time restarts here after benchmark-side work *)
  mutable chrome : Obs.Trace.record list;  (** kept for the trace file, newest first *)
  mutable chrome_ops : int;
  mutable last_dt : float;  (** latency (ns) of the last successful {!exec} *)
  mutable scale : float;  (** {!Probe.scale} of the recent stream probes *)
  mutable ops : int;  (** operations completed in untraced blocks *)
  mutable busy_ns : float;  (** their summed latency, at the reference speed *)
  mutable raw_busy_ns : float;  (** the same, as measured *)
  mutable traced_ops : int;
  mutable traced_busy_ns : float;
  setup_probe : Stats.t;  (** probe times (ns) taken between set-ups *)
  stream_probe : Stats.t;  (** probe times (ns) taken during the stream *)
}

let create ~trace ~seconds ~seed ~inject =
  {
    trace;
    seconds;
    seed;
    inject;
    attempted = 0;
    failed = 0;
    first_failure = None;
    next_id = 0;
    ledger = Ledger.create ();
    traced = false;
    resume = Clock.now_ns ();
    chrome = [];
    chrome_ops = 0;
    last_dt = 0.;
    scale = 1.;
    ops = 0;
    busy_ns = 0.;
    raw_busy_ns = 0.;
    traced_ops = 0;
    traced_busy_ns = 0.;
    setup_probe = Stats.create ();
    stream_probe = Stats.create ();
  }

(** Operations whose spans go to the Chrome trace file (the ledger sees
    all of them). *)
let chrome_op_limit = 400

let note_failure ctx what =
  ctx.failed <- ctx.failed + 1;
  if ctx.first_failure = None then ctx.first_failure <- Some what

(** Run one operation of the stream under a benchmark span named after
    the layer it calls into. Returns [None] when it raised. *)
let exec ctx ~scope name f =
  ctx.attempted <- ctx.attempted + 1;
  ctx.next_id <- ctx.next_id + 1;
  let t0 = Clock.now_ns () in
  let traced () =
    let r, records =
      Obs.Trace.with_recording (fun () ->
          Obs.Trace.span ~scope name ~attrs:[ ("op", Obs.Trace.I ctx.next_id) ] f)
    in
    let t1 = Clock.now_ns () in
    Ledger.add ~stream_wall_ns:(float_of_int (t1 - ctx.resume)) ctx.ledger records;
    if ctx.chrome_ops < chrome_op_limit then begin
      ctx.chrome_ops <- ctx.chrome_ops + 1;
      ctx.chrome <- List.rev_append records ctx.chrome
    end;
    ctx.traced_ops <- ctx.traced_ops + 1;
    ctx.traced_busy_ns <- ctx.traced_busy_ns +. float_of_int (t1 - t0);
    r
  in
  let untraced () =
    let r = f () in
    ctx.last_dt <- float_of_int (Clock.now_ns () - t0);
    ctx.ops <- ctx.ops + 1;
    ctx.busy_ns <- ctx.busy_ns +. (ctx.last_dt /. ctx.scale);
    ctx.raw_busy_ns <- ctx.raw_busy_ns +. ctx.last_dt;
    r
  in
  let r =
    match if ctx.traced then traced () else untraced () with
    | r -> Some r
    | exception e ->
        note_failure ctx (Printf.sprintf "%s/%s raised %s" scope name (Printexc.to_string e));
        None
  in
  ctx.resume <- Clock.now_ns ();
  r

(** Record the last operation's latency at the reference speed, when it
    ran untraced. *)
let sample ctx stats = if not ctx.traced then Stats.add stats (ctx.last_dt /. ctx.scale)

(** Check the answer of the operation just run; a wrong answer (or an
    oracle that raises) makes it a failed operation. Time spent here is
    not stream time. *)
let check ctx what ok =
  let ok = (try ok () with _ -> false) && not ctx.inject in
  ctx.inject <- false;
  if not ok then note_failure ctx ("wrong answer: " ^ what);
  ctx.resume <- Clock.now_ns ()

(** A stand-alone verification (checkpoint, replica, journal replay):
    one attempted operation of its own. *)
let verify ctx what ok =
  ctx.attempted <- ctx.attempted + 1;
  check ctx what ok

(** Time a call with the benchmark clock; returns the result and ms. *)
let timed f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, float_of_int (Clock.now_ns () - t0) /. 1e6)

(** Run [f] in a benchmark span when the run is traced, folding the spans
    into the ledger's duration samples but not into the stream shares
    (set-up, checkpoints and recovery are not stream time). *)
let off_stream ctx ~scope name f =
  if not ctx.trace then f ()
  else begin
    let r, records = Obs.Trace.with_recording (fun () -> Obs.Trace.span ~scope name f) in
    Ledger.add ctx.ledger records;
    ctx.chrome <- List.rev_append records ctx.chrome;
    r
  end

(** Run the set-up [reps] times (the last result is kept) and return it
    with the median set-up time in seconds, each at the reference speed
    the probes right after it measured, and the median as measured. *)
let setup ctx ~reps f =
  let times = Stats.create () and raw = Stats.create () in
  let last = ref None in
  for _ = 1 to reps do
    Gc.full_major ();
    let r, ms = timed (fun () -> off_stream ctx ~scope:"setup" "setup" f) in
    for _ = 1 to probes_per_setup do
      Probe.run ctx.setup_probe
    done;
    Stats.add raw (ms /. 1e3);
    Stats.add times (ms /. 1e3 /. Probe.scale ~last:probes_per_setup ctx.setup_probe);
    last := Some r
  done;
  (Option.get !last, Stats.median times, Stats.median raw)

(** The closed loop: call [step] until [seconds] have passed, [ready]
    holds (the percentiles need enough samples; in an untraced run it
    must, or the run fails) and the stream is at the end of one of its
    request cycles ([cycle_done]), capped at three times the run length;
    [checkpoint] runs once a second. The heap is compacted first, so
    every stream starts from the same GC state rather than from whatever
    set-up left behind: the major GC's pace, and with it every latency,
    follows the heap size. *)
let stream ctx ~ready ~cycle_done ~checkpoint step =
  Gc.compact ();
  let start = Clock.now_ns () in
  let deadline = start + int_of_float (ctx.seconds *. 1e9) in
  let hard = start + int_of_float (3. *. ctx.seconds *. 1e9) in
  let block_end = ref (start + block_ns) and next_cp = ref (start + 1_000_000_000) in
  let next_probe = ref start in
  ctx.traced <- false;
  let continue = ref true in
  while !continue do
    let now = Clock.now_ns () in
    if ctx.trace && now >= !block_end then begin
      ctx.traced <- not ctx.traced;
      block_end := now + block_ns
    end;
    if now >= !next_probe then begin
      Probe.run ctx.stream_probe;
      ctx.scale <- Probe.scale ~last:recent_probes ctx.stream_probe;
      next_probe := Clock.now_ns () + probe_every_ns
    end;
    if now >= !next_cp then begin
      ctx.traced <- false;
      checkpoint ();
      next_cp := Clock.now_ns () + 1_000_000_000
    end;
    ctx.resume <- Clock.now_ns ();
    step ();
    let now = Clock.now_ns () in
    let finished () = ready () && cycle_done () in
    continue := now < hard && (now < deadline || not (finished ()))
  done;
  ctx.traced <- false;
  if not (ctx.trace || ready ()) then note_failure ctx "too few samples for the percentile rule"

let quantile_or_fail ctx what stats q =
  match Stats.quantile stats q with
  | Some v -> v
  | None ->
      note_failure ctx (Printf.sprintf "%s: %d samples are too few for p%g" what (Stats.count stats) (100. *. q));
      Stats.median stats

(** Throughput of the untraced blocks (ops/s), at the reference speed
    (or as measured, with [~raw:true]), and, in a traced run, the
    throughput lost to tracing (percent). *)
let ops_per_s ?(raw = false) ctx =
  let busy = if raw then ctx.raw_busy_ns else ctx.busy_ns in
  if busy <= 0. then 0. else float_of_int ctx.ops /. (busy /. 1e9)

let trace_overhead_pct ctx =
  if ctx.traced_ops = 0 || ctx.ops = 0 then 0.
  else
    let traced = float_of_int ctx.traced_ops /. (ctx.traced_busy_ns /. 1e9) in
    let untraced = ops_per_s ~raw:true ctx in
    100. *. (untraced -. traced) /. untraced

let heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
