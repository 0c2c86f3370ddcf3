(* Self-tests of the benchmark's own arithmetic: the percentile rule,
   self time on a synthetic span tree, the oracles against
   Engine.Reference on tiny instances, and BENCHMARK.json against the
   metric catalogue. Exits 1 on the first failure. *)

open Perfbench

let failures = ref 0

let expect what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" what
  end

let percentile_rule () =
  expect "p50 needs 20 samples" (Stats.min_samples 0.5 = 20);
  expect "p90 needs 100 samples" (Stats.min_samples 0.9 = 100);
  expect "p99 needs 1000 samples" (Stats.min_samples 0.99 = 1000);
  let s = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  expect "p99 of 1..1000 is 990" (Stats.quantile_sorted s 0.99 = Some 990.);
  expect "p90 of 1..1000 is 900" (Stats.quantile_sorted s 0.9 = Some 900.);
  expect "p99 refused below 1000 samples" (Stats.quantile_sorted (Array.sub s 0 999) 0.99 = None);
  expect "p90 refused below 100 samples" (Stats.quantile_sorted (Array.sub s 0 99) 0.9 = None);
  let t = Stats.create () in
  List.iter (Stats.add t) [ 5.; 1.; 3.; 2. ];
  expect "median of an even sample" (Stats.median t = 2.5);
  expect "median of the last three" (Stats.median_last ~last:3 t = 2.);
  expect "median of the last, all when fewer" (Stats.median_last ~last:9 t = 2.5)

let span ~id ~parent ~scope ~name a b : Obs.Trace.record =
  Obs.Trace.RSpan
    { Obs.Trace.id; parent; dom = 0; name; scope; start_ns = a; end_ns = b; attrs = []; err = None }

let self_time () =
  (* eval/update [0,100] ⊃ dyn/update [10,60] ⊃ perm/flush [20,30], [25,40] (overlapping)
                        ⊃ compile/compile [70,120] (clipped to the parent) *)
  let records =
    [
      span ~id:1 ~parent:(-1) ~scope:"eval" ~name:"update" 0. 100.;
      span ~id:2 ~parent:1 ~scope:"dyn" ~name:"update" 10. 60.;
      span ~id:3 ~parent:2 ~scope:"perm" ~name:"flush" 20. 30.;
      span ~id:4 ~parent:2 ~scope:"perm" ~name:"flush" 25. 40.;
      span ~id:5 ~parent:1 ~scope:"compile" ~name:"normalize" 70. 120.;
    ]
  in
  let self = Ledger.self_times records in
  let of_id i = snd (List.find (fun ((s : Obs.Trace.span), _) -> s.Obs.Trace.id = i) self) in
  expect "root self = 100 - 50 - 30" (of_id 1 = 20.);
  expect "overlapping children counted once" (of_id 2 = 30.);
  expect "leaf self = duration" (of_id 3 = 10. && of_id 5 = 50.);
  let l = Ledger.create () in
  Ledger.add ~stream_wall_ns:200. l records;
  expect "named share = root / wall" (Ledger.named_pct l = 50.);
  expect "perm self share" (Ledger.self_pct l "perm" = 12.5);
  expect "normalize is charged to logic" (Ledger.self_pct l "logic" = 25.)

let oracles () =
  let nat = Common.nat_ops and rat = Common.rat_ops in
  List.iter
    (fun (label, g) ->
      let n = Graphs.Graph.n g in
      let w = Array.init n (fun i -> (i * 7 mod 5) + 1) in
      let inst, wn = Common.load_db g ~zero:0 w in
      let arcs = Oracle.of_graph g in
      expect (label ^ ": weighted triangles")
        (Oracle.weighted_triangles arcs w
        = Engine.Reference.eval nat inst (Db.Weights.bundle [ wn ]) Common.wtri);
      let wr = Array.map Common.rat_of_weight w in
      let _, wrs = Common.load_db g ~zero:Semiring.Rat.zero wr in
      for x = 0 to n - 1 do
        expect (label ^ ": PageRank step")
          (Semiring.Rat.equal
             (Oracle.pagerank_at arcs ~c:(Common.pr_c n) ~d:Common.pr_d wr x)
             (Engine.Reference.eval rat inst (Db.Weights.bundle [ wrs ]) ~env:[ ("x", x) ]
                (Common.pagerank n)))
      done;
      let _, want = Engine.Reference.answers inst Common.path2 in
      expect (label ^ ": path2 count") (Oracle.path2_count arcs = List.length want);
      let answers = List.map Array.of_list want in
      expect (label ^ ": reference answers pass the answer check") (Oracle.path2_answers_ok arcs answers);
      expect (label ^ ": a duplicate answer is caught")
        (answers = [] || not (Oracle.path2_answers_ok arcs (List.hd answers :: List.tl answers @ [ List.hd answers ]))))
    [
      ("3x3 triangulated grid", Graphs.Gen.triangulated_grid 3 3);
      ("3x3 grid", Graphs.Gen.grid 3 3);
      ("K4", Graphs.Gen.complete 4);
    ];
  (* a one-arc edit breaks symmetry; the oracle must follow the arcs *)
  let g = Graphs.Gen.grid 3 3 in
  let inst, wn = Common.load_db g ~zero:0 (Array.make 9 2) in
  Db.Instance.add inst "E" [ 0; 4 ];
  let arcs = Oracle.of_graph g in
  Oracle.add arcs 0 4;
  expect "directed arc: weighted triangles"
    (Oracle.weighted_triangles arcs (Array.make 9 2)
    = Engine.Reference.eval nat inst (Db.Weights.bundle [ wn ]) Common.wtri)

(* first index of [sub] in [s] at or after [i] *)
let find_from s i sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then raise Not_found
    else if String.sub s i n = sub then i
    else go (i + 1)
  in
  go i

(* string field [key] of a flat JSON object *)
let field obj key =
  let a = find_from obj 0 ("\"" ^ key ^ "\": \"") + String.length key + 5 in
  String.sub obj a (String.index_from obj a '"' - a)

(* the metric objects of one BENCHMARK.json section as (name, unit,
   better), in file order *)
let declared section json =
  let start = find_from json 0 ("\"" ^ section ^ "\"") in
  let stop = String.index_from json start ']' in
  let rec go acc i =
    match String.index_from json i '{' with
    | j when j < stop ->
        let k = String.index_from json j '}' in
        let obj = String.sub json j (k - j) in
        go ((field obj "name", field obj "unit", field obj "better") :: acc) k
    | _ | (exception Not_found) -> List.rev acc
  in
  go [] start

let catalogue () =
  let json = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let better = function Metrics.Lower -> "lower" | Metrics.Higher -> "higher" in
  expect "end_to_end entries match the catalogue"
    (declared "end_to_end" json
    = List.map (fun (m, u, d) -> (m, u, better d)) Metrics.end_to_end);
  expect "per_layer names and units match the catalogue"
    (List.map (fun (m, u, _) -> (m, u)) (declared "per_layer" json) = Metrics.per_layer)

let () =
  percentile_rule ();
  self_time ();
  oracles ();
  catalogue ();
  if !failures > 0 then exit 1;
  print_endline "perfbench selftest: ok"
