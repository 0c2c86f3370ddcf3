(* The repository benchmark, one workload per process (perfbench/run.py
   builds it and runs it):

     main.exe --workload serve_weights --seed 1 --seconds 12 --trace 0

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
   ledger (and writes a Chrome trace to .bench_build/out/). Every answer is checked against oracles that
   do not use the compiler; a failed or wrong operation makes the run
   exit 1. --inject-mismatch corrupts one answer check on purpose, to
   show that the oracles bite. The last line of standard output is the
   JSON result. *)

open Perfbench

let workloads =
  [ ("serve_weights", Serve.run); ("struct_churn", Churn.run); ("oneshot_analytics", Oneshot.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (serve_weights|struct_churn|oneshot_analytics) --seed N \
     --seconds S --trace (0|1) [--inject-mismatch]";
  exit 2

let parse () =
  let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref 0 and inject = ref false in
  let rec go = function
    | "--workload" :: w :: rest ->
        workload := w;
        go rest
    | "--seed" :: s :: rest ->
        seed := int_of_string_opt s;
        go rest
    | "--seconds" :: s :: rest ->
        seconds := Option.value ~default:(-1.) (float_of_string_opt s);
        go rest
    | "--trace" :: t :: rest ->
        trace := Option.value ~default:(-1) (int_of_string_opt t);
        go rest
    | "--inject-mismatch" :: rest ->
        inject := true;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !seed with
  | Some seed when !seconds > 0. && (!trace = 0 || !trace = 1) ->
      (!workload, seed, !seconds, !trace = 1, !inject)
  | _ -> usage ()

let value_json v unit = Obs.Json.O [ ("value", Obs.Json.F v); ("unit", Obs.Json.S unit) ]

(* End-to-end metrics as (name, value at the reference host speed, value
   as measured); the latency samples are already at the reference speed. *)
let end_to_end ctx (r : Common.result) =
  let q name s p scale =
    let v = Harness.quantile_or_fail ctx "latency" s p /. scale in
    (name, v, v)
  in
  [
    ("setup_s", r.Common.setup_s, r.Common.setup_raw_s);
    ("ops_per_s", Harness.ops_per_s ctx, Harness.ops_per_s ~raw:true ctx);
    q "light_p50_us" r.Common.light 0.5 1e3;
    q "light_p99_us" r.Common.light 0.99 1e3;
    q "heavy_p50_ms" r.Common.heavy 0.5 1e6;
    q "heavy_p90_ms" r.Common.heavy 0.9 1e6;
    (let mb = Harness.heap_mb () in
     ("peak_heap_mb", mb, mb));
  ]

let per_layer ctx (r : Common.result) =
  let l = ctx.Harness.ledger in
  List.map (fun (m, key) -> (m, Ledger.median_ms l key)) Metrics.ledger_spans
  @ [
      ("gc.top_heap_mb", Harness.heap_mb ());
      ("host.probe_us", Stats.median ctx.Harness.stream_probe /. 1e3);
      ("obs.trace_overhead_pct", Harness.trace_overhead_pct ctx);
      ("ledger.named_pct", Ledger.named_pct l);
    ]
  @ List.map (fun layer -> (layer ^ ".self_pct", Ledger.self_pct l layer)) Ledger.layers
  @ r.Common.layer

let write_chrome name seed ctx =
  if not (Sys.file_exists Common.out_dir) then Sys.mkdir Common.out_dir 0o755;
  let path = Filename.concat Common.out_dir (Printf.sprintf "%s-seed%d.trace.json" name seed) in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string (Obs.Trace.to_chrome (List.rev ctx.Harness.chrome)));
  close_out oc;
  path

let run_one name run ~seed ~seconds ~trace ~inject =
  let ctx = Harness.create ~trace ~seconds ~seed ~inject in
  let r =
    try Some (run ctx)
    with e ->
      Harness.note_failure ctx (Printf.sprintf "workload aborted: %s" (Printexc.to_string e));
      None
  in
  let catalogue, values =
    match r with
    | None -> ([], [])
    | Some r ->
        if trace then (Metrics.per_layer, List.map (fun (m, v) -> (m, (v, v))) (per_layer ctx r))
        else
          ( List.map (fun (m, u, _) -> (m, u)) Metrics.end_to_end,
            List.map (fun (m, v, raw) -> (m, (v, raw))) (end_to_end ctx r) )
  in
  List.iter
    (fun (m, _) ->
      if not (List.mem_assoc m catalogue) then failwith ("metric missing from the catalogue: " ^ m))
    values;
  let metrics =
    List.map (fun (m, unit) -> (m, Option.value ~default:(0., 0.) (List.assoc_opt m values), unit)) catalogue
  in
  List.iter
    (fun (m, (v, raw), unit) ->
      if raw = v then Printf.printf "%s %s = %.6g %s\n" name m v unit
      else Printf.printf "%s %s = %.6g %s (raw %.6g %s)\n" name m v unit raw unit)
    metrics;
  if r <> None then
    Printf.printf "%s host slowdown = %.3f (stream), %.3f (set-up)\n" name
      (Probe.slowdown ctx.Harness.stream_probe) (Probe.slowdown ctx.Harness.setup_probe);
  if trace && r <> None then Printf.printf "%s trace written to %s\n" name (write_chrome name seed ctx);
  Option.iter (Printf.printf "%s FAILED: %s\n" name) ctx.Harness.first_failure;
  let correct = ctx.Harness.failed = 0 && r <> None in
  let json =
    Obs.Json.O
      [
        ("correct", Obs.Json.B correct);
        ("attempted", Obs.Json.I (max 1 ctx.Harness.attempted));
        ("failed", Obs.Json.I ctx.Harness.failed);
        ("metrics", Obs.Json.O (List.map (fun (m, (v, _), unit) -> (m, value_json v unit)) metrics));
      ]
  in
  (correct, Obs.Json.to_string json)

let () =
  let workload, seed, seconds, trace, inject = parse () in
  let run = match List.assoc_opt workload workloads with Some run -> run | None -> usage () in
  (match Clock.check () with
  | Ok tick -> Printf.printf "clock: CLOCK_MONOTONIC, smallest step %d ns\n" tick
  | Error msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 1);
  if trace then Obs.set_clock (Some Clock.now_f);
  let correct, json = run_one workload run ~seed ~seconds ~trace ~inject in
  print_endline json;
  if not correct then exit 1
