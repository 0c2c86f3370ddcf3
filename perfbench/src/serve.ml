(** [serve_weights]: two standing queries over one weight store on a
    triangulated grid — weighted triangles in ℕ (General mode, segment
    trees on the machine-int plane) and a PageRank step in ℚ with free x
    (Ring mode on the boxed plane) — serving a mixed stream of uniform
    single writes (applied to both), hot-key [update_many] batches and
    point queries, with journaling on. *)

open Common

(* The 20×20 triangulated grid is close to the 22×22 one of bench/'s
   triangle_nat workload; the batches of 1024 writes drawn uniformly from
   a pool of 96 hot keys are those of bench/'s batch_* workloads. *)
let side = 20
let reps = 5
let batch_size = 1024
let pool_size = 96

type state = {
  inst : Db.Instance.t;
  tri : int E.t;
  pr : Semiring.Rat.t E.t;
}

let initial_weights ~seed n =
  let rng = Random.State.make [| seed; 1 |] in
  Array.init n (fun _ -> Random.State.int rng 10)

(* the weight store and both prepared queries, journaling when asked *)
let build ~side ~seed ~journal =
  let g = Graphs.Gen.triangulated_grid side side in
  let w0 = initial_weights ~seed (Graphs.Graph.n g) in
  let inst, wn = load_db g ~zero:0 w0 in
  let n = Db.Instance.n inst in
  let wr = Db.Weights.create ~name:"w" ~arity:1 ~zero:Semiring.Rat.zero in
  span ~scope:"db" "load" (fun () -> Db.Weights.fill_unary wr ~n (fun i -> rat_of_weight w0.(i)));
  let tri =
    span ~scope:"eval" "prepare" (fun () ->
        E.prepare nat_ops ~mode:Circuits.Dyn.General ~tfa_rounds:1 inst (Db.Weights.bundle [ wn ]) wtri)
  in
  let pr =
    span ~scope:"eval" "prepare" (fun () ->
        E.prepare rat_ops ~mode:Circuits.Dyn.Ring ~tfa_rounds:1 inst (Db.Weights.bundle [ wr ]) (pagerank n))
  in
  if journal then begin
    ignore (E.enable_journal tri);
    ignore (E.enable_journal pr)
  end;
  ({ inst; tri; pr }, g, w0, wn, wr)

(* The requests of the stream: a single write to a uniform key, a point
   query at a uniform element, or a batch of writes to keys drawn
   uniformly from the hot pool. They come in blocks of 20 — 17 writes,
   2 queries and 1 batch (85/10/5%, an assumption, not measured traffic)
   in an order drawn from [rng]. A batch costs as much as a hundred
   writes, so a mix drawn request by request would let the share of
   batches, and with it the throughput, vary from seed to seed; the
   stream ends at the end of a block, so every run serves the same mix. *)
type request = Write of int * int | Query of int | Batch of (int * int) list

type kind = Write_kind | Query_kind | Batch_kind

let block = 20
let block_kinds =
  Array.init block (fun i -> if i < 17 then Write_kind else if i < 19 then Query_kind else Batch_kind)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* the request source: [next ()] draws the next request *)
let requests rng ~n ~pool ~batch_size =
  let kinds = Array.copy block_kinds and i = ref block in
  fun () ->
    if !i = block then begin
      shuffle rng kinds;
      i := 0
    end;
    incr i;
    match kinds.(!i - 1) with
    | Write_kind -> Write (Random.State.int rng n, Random.State.int rng 10)
    | Query_kind -> Query (Random.State.int rng n)
    | Batch_kind ->
        Batch
          (List.init batch_size (fun _ ->
               (pool.(Random.State.int rng (Array.length pool)), Random.State.int rng 10)))

let draw_pool rng ~n ~size =
  let a = Array.init n Fun.id in
  shuffle rng a;
  Array.sub a 0 (min size n)

let apply_write st x k =
  E.update st.tri "w" [ x ] k;
  E.update st.pr "w" [ x ] (rat_of_weight k)

let apply_batch st writes =
  E.update_many st.tri (List.map (fun (x, k) -> ("w", [ x ], k)) writes);
  E.update_many st.pr (List.map (fun (x, k) -> ("w", [ x ], rat_of_weight k)) writes)

(* The same request stream on a 3×3 replica, every answer checked
   against Engine.Reference and the closed forms against it too. *)
let replica ctx =
  let st, g, w0, wn, wr = build ~side:3 ~seed:ctx.Harness.seed ~journal:true in
  let arcs = Oracle.of_graph g in
  let n = Graphs.Graph.n g in
  let w = Array.copy w0 in
  let rng = Random.State.make [| ctx.Harness.seed; 2 |] in
  let pool = draw_pool rng ~n ~size:3 in
  let next = requests rng ~n ~pool ~batch_size:8 in
  let nat_bundle = Db.Weights.bundle [ wn ] and rat_bundle = Db.Weights.bundle [ wr ] in
  let set x k =
    w.(x) <- k;
    Db.Weights.set wn [ x ] k;
    Db.Weights.set wr [ x ] (rat_of_weight k)
  in
  let value_ok () =
    let want = Engine.Reference.eval nat_ops st.inst nat_bundle wtri in
    E.value st.tri = want && Oracle.weighted_triangles arcs w = want
  in
  for _ = 1 to 2 * block do
    match next () with
    | Write (x, k) ->
        apply_write st x k;
        set x k;
        Harness.verify ctx "serve replica write vs Reference" value_ok
    | Batch ws ->
        apply_batch st ws;
        List.iter (fun (x, k) -> set x k) ws;
        Harness.verify ctx "serve replica batch vs Reference" value_ok
    | Query x ->
        let got = E.query st.pr [ x ] in
        Harness.verify ctx "serve replica query vs Reference" (fun () ->
            let want = Engine.Reference.eval rat_ops st.inst rat_bundle ~env:[ ("x", x) ] (pagerank n) in
            let wr = Array.map rat_of_weight w in
            Semiring.Rat.equal got want
            && Semiring.Rat.equal (Oracle.pagerank_at arcs ~c:(pr_c n) ~d:pr_d wr x) want)
  done

let run ctx : result =
  replica ctx;
  let (st, g, w0, _, _), setup_s, setup_raw_s =
    Harness.setup ctx ~reps (fun () -> build ~side ~seed:ctx.Harness.seed ~journal:true)
  in
  let n = Graphs.Graph.n g in
  let arcs = Oracle.of_graph g in
  let tcount = Oracle.tri_counts arcs in
  let w = Array.copy w0 in
  let wr = Array.map rat_of_weight w0 in
  let expected = ref (Oracle.weighted_triangles arcs w) in
  let c = pr_c n in
  let rng = Random.State.make [| ctx.Harness.seed; 3 |] in
  let pool = draw_pool rng ~n ~size:pool_size in
  let next = requests rng ~n ~pool ~batch_size and served = ref 0 in
  let set x k =
    expected := !expected + ((k - w.(x)) * tcount.(x));
    w.(x) <- k;
    wr.(x) <- rat_of_weight k
  in
  let light = Stats.create () and heavy = Stats.create () and query = Stats.create () in
  let touched = counter "dyn" "touched_gates" in
  let seg_sets = counter "perm" "segtree_sets" and ring_sets = counter "perm" "ring_sets" in
  let jbytes = counter "dyn" "journal_bytes" in
  let writes = ref 0 and touched_w = ref 0 and seg_w = ref 0 and ring_w = ref 0 in
  let batches = ref 0 and touched_b = ref 0 and distinct_b = ref 0 and batch_writes = ref 0 in
  let jbytes0 = jbytes () in
  let step () =
    incr served;
    match next () with
    | Write (x, k) ->
        let t0 = touched () and s0 = seg_sets () and r0 = ring_sets () in
        (match Harness.exec ctx ~scope:"eval" "update" (fun () -> apply_write st x k) with
        | Some () ->
            Harness.sample ctx light;
            incr writes;
            touched_w := !touched_w + (touched () - t0);
            seg_w := !seg_w + (seg_sets () - s0);
            ring_w := !ring_w + (ring_sets () - r0);
            set x k;
            Harness.check ctx "weighted triangles after a write" (fun () -> E.value st.tri = !expected)
        | None -> ())
    | Query x -> (
        match Harness.exec ctx ~scope:"eval" "query" (fun () -> E.query st.pr [ x ]) with
        | Some got ->
            Harness.sample ctx query;
            Harness.check ctx "PageRank point query" (fun () ->
                Semiring.Rat.equal got (Oracle.pagerank_at arcs ~c ~d:pr_d wr x))
        | None -> ())
    | Batch ws -> (
        let t0 = touched () in
        match Harness.exec ctx ~scope:"eval" "update_many" (fun () -> apply_batch st ws) with
        | Some () ->
            Harness.sample ctx heavy;
            incr batches;
            touched_b := !touched_b + (touched () - t0);
            batch_writes := !batch_writes + List.length ws;
            distinct_b := !distinct_b + List.length (List.sort_uniq compare (List.map fst ws));
            List.iter (fun (x, k) -> set x k) ws;
            Harness.check ctx "weighted triangles after a batch" (fun () -> E.value st.tri = !expected)
        | None -> ())
  in
  let checkpoint () =
    Harness.off_stream ctx ~scope:"checkpoint" "static_eval" (fun () ->
        let x = Random.State.int rng n in
        let tri_static = static_eval nat_ops st.tri (valuation ~zero:0 ~one:1 w ()) in
        let pr_static =
          static_eval rat_ops st.pr
            (valuation ~zero:Semiring.Rat.zero ~one:Semiring.Rat.one wr ~query_at:x ())
        in
        Harness.verify ctx "live value vs static Compact.eval" (fun () ->
            tri_static = E.value st.tri
            && Semiring.Rat.equal pr_static (Oracle.pagerank_at arcs ~c ~d:pr_d wr x)))
  in
  let gc0 = Gc.quick_stat () in
  let ready () =
    ctx.Harness.trace
    || Stats.count light >= Stats.min_samples 0.99
    && Stats.count heavy >= Stats.min_samples 0.9
    && Stats.count query >= Stats.min_samples 0.9
  in
  let cycle_done () = !served mod block = 0 in
  Harness.stream ctx ~ready ~cycle_done ~checkpoint step;
  let gc1 = Gc.quick_stat () in
  let ops = ctx.Harness.ops + ctx.Harness.traced_ops in
  let all_writes = !writes + !batch_writes in
  let journal_bytes = jbytes () - jbytes0 in
  (* recovery: a fresh engine on the initial store replays both journals *)
  let replay_ms =
    Harness.off_stream ctx ~scope:"journal" "recover" (fun () ->
        let fresh, _, _, _, _ = build ~side ~seed:ctx.Harness.seed ~journal:false in
        let jt = Option.get (Circuits.Dyn.journal st.tri.E.dyn)
        and jp = Option.get (Circuits.Dyn.journal st.pr.E.dyn) in
        let (), ms =
          Harness.timed (fun () ->
              span ~scope:"journal" "replay" (fun () ->
                  E.replay fresh.tri jt;
                  E.replay fresh.pr jp))
        in
        Harness.verify ctx "journal replay reproduces the live state" (fun () ->
            same_state nat_ops st.tri fresh.tri && same_state rat_ops st.pr fresh.pr);
        ms)
  in
  let q p = match Stats.quantile query p with Some v -> v /. 1e3 | None -> 0. in
  {
    setup_s;
    setup_raw_s;
    light;
    heavy;
    layer =
      meta_layer (E.meta st.tri)
      @ [
          ("dyn.touched_per_update", ratio !touched_w !writes);
          ("dyn.touched_per_batch", ratio !touched_b !batches);
          ("dyn.batch_dedup_ratio", ratio !distinct_b !batch_writes);
          ("perm.segtree_sets_per_update", ratio !seg_w !writes);
          ("perm.ring_sets_per_update", ratio !ring_w !writes);
          ("journal.bytes_per_write", ratio journal_bytes all_writes);
          ("journal.replay_ms", replay_ms);
          ("eval.query_p50_us", q 0.5);
          ("eval.query_p90_us", q 0.9);
          ("gc.minor_words_per_op", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int (max 1 ops));
          ( "gc.major_collections_per_kop",
            1000. *. ratio (gc1.Gc.major_collections - gc0.Gc.major_collections) ops );
        ];
  }
