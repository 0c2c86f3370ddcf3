(** [oneshot_analytics]: cold requests, round-robin — [count] prepares
    weighted triangles and reads the value, [enum] prepares path2 for
    enumeration and lists every answer, [load] loads a circuit persisted
    during set-up and evaluates it under fresh weights. No update wave
    runs. The heavy class is the [count] request, the light class the
    [load] request. *)

open Common

(* A run must hold the 100 counts a p90 needs, which bounds the count
   instance at 4×4. About 1% of answer gaps take far longer than the rest
   (the p99.5 is some 25× the median): with the ~100 answers of a 4×4
   grid the p99 of the gaps sits on that cliff and jumps from run to run,
   with the ~300 answers of a 6×6 grid it sits in the smooth part of the
   tail. A larger enum grid leaves too few counts in a run. *)
let side = 4
let enum_side = 6
let persisted_side = 6
let reps = 9

type request = Count | Enum | Load

(* The round-robin cycle: eight times a count and thirty loads, then one
   enum. A run of 12 s then holds the 100 counts the heavy p90 needs and
   some 3000 loads; a strict count/enum/load rotation would spend most of
   a run in the enum's prepare (three counts' time) and hold too few of
   either. With only the 1000 loads a p99 needs, the ten beyond it were
   too few: a handful of loads stalled by the host for milliseconds moved
   the p99 by half from run to run. The answer gaps of the enums are not the
   light class: the enumeration allocates enough for a minor collection
   every ~100 answers, so 1% of the gaps hold one and their p99 sat on
   that cliff, moving by a fifth from run to run (they are the per-layer
   [enum.delay_*]). The stream ends only at the end of a cycle, so every
   run serves the same mix. *)
let cycle =
  Array.of_list (List.concat (List.init 8 (fun _ -> Count :: List.init 30 (fun _ -> Load))) @ [ Enum ])

let fresh_weights rng n = Array.init n (fun _ -> Random.State.int rng 10)

(* compile, freeze and save the circuit the load requests serve *)
let persist ~side ~path =
  let g = Graphs.Gen.triangulated_grid side side in
  let inst, _ = load_db g ~zero:0 (Array.make (Graphs.Graph.n g) 0) in
  let circuit, _ =
    Engine.Compile.compile ~zero:0 ~one:1 ~equal:Int.equal ~tfa_rounds:1 inst wtri
  in
  let cc = span ~scope:"compact" "freeze" (fun () -> Circuits.Compact.of_circuit circuit) in
  span ~scope:"compact" "save" (fun () -> Circuits.Compact.save ~tag:"nat" cc path);
  (g, Array.length circuit.Circuits.Circuit.nodes)

let count inst w =
  let wn =
    span ~scope:"db" "weights" (fun () ->
        let wn = Db.Weights.create ~name:"w" ~arity:1 ~zero:0 in
        Db.Weights.fill_unary wn ~n:(Array.length w) (fun i -> w.(i));
        wn)
  in
  let ev = E.prepare nat_ops ~tfa_rounds:1 inst (Db.Weights.bundle [ wn ]) wtri in
  (E.value ev, ev)

let load path w =
  let cc, _tag = span ~scope:"compact" "load" (fun () -> Circuits.Compact.load path) in
  span ~scope:"compact" "eval" (fun () -> Circuits.Compact.eval nat_ops cc (valuation ~zero:0 ~one:1 w ()))

(* Enumerate every answer, timing each step after the first with the
   benchmark clock; returns the answers, the time to the first answer
   (ns, from [t0]) and the per-answer gaps. *)
let enumerate t ~t0 gaps =
  let it = Fo_enum.enumerate t in
  Enum.Iter.next it;
  let first = Enum.Iter.current it in
  let first_ns = Clock.now_ns () - t0 in
  let rec go acc =
    let a = Clock.now_ns () in
    Enum.Iter.next it;
    match Enum.Iter.current it with
    | Some ans ->
        Stats.add gaps (float_of_int (Clock.now_ns () - a));
        go (ans :: acc)
    | None -> acc
  in
  let answers = match first with Some ans -> go [ ans ] | None -> [] in
  (answers, first_ns)

let replica ctx =
  let rng = Random.State.make [| ctx.Harness.seed; 21 |] in
  let g = Graphs.Gen.triangulated_grid 3 3 in
  let arcs = Oracle.of_graph g in
  let inst, _ = load_db g ~zero:0 (Array.make 9 0) in
  let w = fresh_weights rng 9 in
  let got, ev = count inst w in
  Harness.verify ctx "oneshot replica count vs Reference" (fun () ->
      let _, wn = load_db g ~zero:0 w in
      let want = Engine.Reference.eval nat_ops inst (Db.Weights.bundle [ wn ]) wtri in
      got = want && Oracle.weighted_triangles arcs w = want && E.value ev = want);
  let gg = Graphs.Gen.grid 3 3 in
  let ginst, _ = load_db gg ~zero:0 (Array.make 9 0) in
  let garcs = Oracle.of_graph gg in
  let answers, _ = enumerate (Fo_enum.prepare ginst path2) ~t0:(Clock.now_ns ()) (Stats.create ()) in
  Harness.verify ctx "oneshot replica enum vs Reference" (fun () ->
      let _, want = Engine.Reference.answers ginst path2 in
      List.sort compare (List.map Array.to_list answers) = want && Oracle.path2_answers_ok garcs answers);
  let path = Filename.concat out_dir (Printf.sprintf "replica-%d.spqc" (Unix.getpid ())) in
  let pg, _ = persist ~side:3 ~path in
  let v = load path w in
  Sys.remove path;
  Harness.verify ctx "oneshot replica load vs Reference" (fun () ->
      let pinst, pw = load_db pg ~zero:0 w in
      let want = Engine.Reference.eval nat_ops pinst (Db.Weights.bundle [ pw ]) wtri in
      v = want && Oracle.weighted_triangles (Oracle.of_graph pg) w = want)

let run ctx : result =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  replica ctx;
  let path = Filename.concat out_dir (Printf.sprintf "oneshot-%d.spqc" (Unix.getpid ())) in
  let cg = Graphs.Gen.triangulated_grid side side and gg = Graphs.Gen.grid enum_side enum_side in
  let (cinst, ginst, pg, pgates), setup_s, setup_raw_s =
    Harness.setup ctx ~reps (fun () ->
        let cinst, _ = load_db cg ~zero:0 (Array.make (Graphs.Graph.n cg) 0) in
        let ginst, _ = load_db gg ~zero:0 (Array.make (Graphs.Graph.n gg) 0) in
        let pg, pgates = persist ~side:persisted_side ~path in
        (cinst, ginst, pg, pgates))
  in
  let carcs = Oracle.of_graph cg and garcs = Oracle.of_graph gg and parcs = Oracle.of_graph pg in
  let file_bytes = (Unix.stat path).Unix.st_size in
  let rng = Random.State.make [| ctx.Harness.seed; 22 |] in
  let light = Stats.create () and heavy = Stats.create () in
  let gaps_all = Stats.create () in
  let first = Stats.create () and after_first_ns = ref 0 and after_first = ref 0 in
  let ticks = ref 0 and answers_total = ref 0 and last_meta = ref None and fo_gates = ref 0 in
  let turn = ref 0 in
  let step () =
    let request = cycle.(!turn mod Array.length cycle) in
    incr turn;
    match request with
    | Count -> (
        let w = fresh_weights rng (Db.Instance.n cinst) in
        match Harness.exec ctx ~scope:"eval" "count" (fun () -> count cinst w) with
        | Some (got, ev) ->
            Harness.sample ctx heavy;
            last_meta := Some (E.meta ev);
            Harness.check ctx "cold weighted-triangle count" (fun () ->
                got = Oracle.weighted_triangles carcs w)
        | None -> ())
    | Enum -> (
        let gaps = Stats.create () in
        let ticks0 = !Enum.Iter.ticks in
        match
          Harness.exec ctx ~scope:"fo_enum" "request" (fun () ->
              let t0 = Clock.now_ns () in
              let t = Fo_enum.prepare ginst path2 in
              let answers, first_ns = span ~scope:"enum" "enumerate" (fun () -> enumerate t ~t0 gaps) in
              (t, answers, first_ns))
        with
        | Some (t, answers, first_ns) ->
            if not ctx.Harness.traced then begin
              Stats.add first (float_of_int first_ns);
              Stats.iter (Stats.add gaps_all) gaps;
              after_first_ns := !after_first_ns + int_of_float (Stats.sum gaps);
              after_first := !after_first + Stats.count gaps;
              ticks := !ticks + (!Enum.Iter.ticks - ticks0);
              answers_total := !answers_total + List.length answers
            end;
            fo_gates := (Fo_enum.stats t).Circuits.Circuit.gates;
            Harness.check ctx "path2 answers: valid, distinct, complete" (fun () ->
                Oracle.path2_answers_ok garcs answers)
        | None -> ())
    | Load -> (
        let w = fresh_weights rng (Graphs.Graph.n pg) in
        match Harness.exec ctx ~scope:"compact" "load_request" (fun () -> load path w) with
        | Some v ->
            Harness.sample ctx light;
            Harness.check ctx "persisted circuit under fresh weights" (fun () ->
                v = Oracle.weighted_triangles parcs w)
        | None -> ())
  in
  let gc0 = Gc.quick_stat () in
  (* a traced run waits for the gaps of enum.delay_p99_ns instead *)
  let ready () =
    if ctx.Harness.trace then Stats.count gaps_all >= Stats.min_samples 0.99
    else Stats.count light >= Stats.min_samples 0.99 && Stats.count heavy >= Stats.min_samples 0.9
  in
  let cycle_done () = !turn mod Array.length cycle = 0 in
  Harness.stream ctx ~ready ~cycle_done ~checkpoint:ignore step;
  let gc1 = Gc.quick_stat () in
  Sys.remove path;
  let ops = !turn in
  let q s p = match Stats.quantile s p with Some v -> v | None -> 0. in
  {
    setup_s;
    setup_raw_s;
    light;
    heavy;
    layer =
      (match !last_meta with Some m -> meta_layer m | None -> [])
      @ [
          ("compact.load_request_p50_ms", Stats.median light /. 1e6);
          ("compact.bytes_per_gate", ratio file_bytes pgates);
          ("fo_enum.gates", float_of_int !fo_gates);
          ("fo_enum.first_answer_ms", Stats.median first /. 1e6);
          ("enum.delay_p50_ns", q gaps_all 0.5);
          ("enum.delay_p99_ns", q gaps_all 0.99);
          ("enum.ticks_per_answer", ratio !ticks !answers_total);
          ("enum.answers_per_s", float_of_int !after_first /. (float_of_int (max 1 !after_first_ns) /. 1e9));
          ("gc.minor_words_per_op", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int (max 1 ops));
          ( "gc.major_collections_per_kop",
            1000. *. ratio (gc1.Gc.major_collections - gc0.Gc.major_collections) ops );
        ];
  }
