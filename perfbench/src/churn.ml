(** [struct_churn]: weighted triangles in ℕ on a plain grid with
    journaling on. Each round writes a few random weights, inserts one
    diagonal arc of a random grid cell ([insert_tuple]: the localized
    recompile + splice path) and deletes it again ([delete_tuple]), so
    every write and every insert sees the plain grid and the cost of an
    edit does not drift with how many diagonals a seed left behind.
    Writes (light) and inserts (heavy) are timed; deletes, and the first
    write after each delete, run and are checked but are not part of
    either class. Structural fallbacks to a full recompile are counted,
    never filtered out. *)

open Common

(* The 5×5 grid and the arc (r,c)→(r+1,c+1) are those of the
   repository's churn workload at its small size. Its 7×7 size allows
   too few inserts in a run for a p90 (an edit takes tens of ms), and
   its two writes per edit too few writes for a p99: 24 writes per round
   give some four thousand in a run. The first write after an edit is a
   request of another kind: it refills the caches the recompile evicted
   and takes five times as long as the rest. With one in twelve writes
   of that kind the light p99 sat in their distribution and moved by a
   fifth from run to run, so it is not timed. *)
let side = 5
let reps = 9
let writes_per_edit = 24

let initial_weights ~seed n =
  let rng = Random.State.make [| seed; 11 |] in
  Array.init n (fun _ -> 1 + Random.State.int rng 5)

let build ~side ~seed ~journal =
  let g = Graphs.Gen.grid side side in
  let w0 = initial_weights ~seed (Graphs.Graph.n g) in
  let inst, wn = load_db g ~zero:0 w0 in
  let ev =
    span ~scope:"eval" "prepare" (fun () ->
        E.prepare nat_ops ~mode:Circuits.Dyn.General ~tfa_rounds:1 inst (Db.Weights.bundle [ wn ]) wtri)
  in
  if journal then ignore (E.enable_journal ev);
  (ev, inst, wn, g, w0)

(* the diagonal arc (r,c)→(r+1,c+1) of grid cell [cell] *)
let diagonal ~side cell =
  let r = cell / (side - 1) and c = cell mod (side - 1) in
  ((r * side) + c, ((r + 1) * side) + c + 1)

(* the diagonal of a random grid cell *)
let draw_arc rng ~side = diagonal ~side (Random.State.int rng ((side - 1) * (side - 1)))

(* Cells for the stream's edits: rounds of a fresh random permutation of
   every cell, so each cell is edited equally often in every run (an
   edit costs 0.6–1.4× the median depending on its cell, and a plain
   random draw would let that mix, and the median, vary by seed). *)
let cell_order rng ~side =
  let cells = (side - 1) * (side - 1) in
  let order = Array.init cells Fun.id and next = ref cells in
  fun () ->
    if !next = cells then begin
      for i = cells - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      next := 0
    end;
    incr next;
    order.(!next - 1)

(* A write goes to the store (new circuit inputs read it) and to the
   engine. *)
let write ev wn x k =
  Db.Weights.set wn [ x ] k;
  E.update ev "w" [ x ] k

let toggle ev arcs (a, b) =
  if Oracle.mem arcs a b then begin
    E.delete_tuple ev "E" [ a; b ];
    Oracle.remove arcs a b
  end
  else begin
    E.insert_tuple ev "E" [ a; b ];
    Oracle.add arcs a b
  end

(* The same stream on a 3×3 grid, every value checked against
   Engine.Reference on the mutated instance. *)
let replica ctx =
  let ev, inst, wn, g, w0 = build ~side:3 ~seed:ctx.Harness.seed ~journal:true in
  let arcs = Oracle.of_graph g in
  let w = Array.copy w0 in
  let rng = Random.State.make [| ctx.Harness.seed; 12 |] in
  let ok () =
    let want = Engine.Reference.eval nat_ops inst (Db.Weights.bundle [ wn ]) wtri in
    E.value ev = want && Oracle.weighted_triangles arcs w = want
  in
  for _ = 1 to 12 do
    let x = Random.State.int rng 9 and k = Random.State.int rng 6 in
    write ev wn x k;
    w.(x) <- k;
    Harness.verify ctx "churn replica write vs Reference" ok;
    toggle ev arcs (draw_arc rng ~side:3);
    (* the replica toggles at random, so it also sees stacked diagonals *)
    Harness.verify ctx "churn replica edit vs Reference" ok
  done

let run ctx : result =
  replica ctx;
  let (ev, _, wn, g, w0), setup_s, setup_raw_s =
    Harness.setup ctx ~reps (fun () -> build ~side ~seed:ctx.Harness.seed ~journal:true)
  in
  let n = Graphs.Graph.n g in
  let arcs = Oracle.of_graph g in
  let w = Array.copy w0 in
  let tcount = ref (Oracle.tri_counts arcs) in
  let expected = ref (Oracle.weighted_triangles arcs w) in
  let rng = Random.State.make [| ctx.Harness.seed; 13 |] in
  let light = Stats.create () and heavy = Stats.create () in
  let copied = counter "compile" "gates_copied" and fallbacks = counter "engine" "structural_fallbacks" in
  let carried = counter "dyn" "splice_carried_gates" and rebuilt = counter "dyn" "splice_rebuilt_gates" in
  let creates =
    let s = counter "perm" "segtree_creates" and r = counter "perm" "ring_creates" and f = counter "perm" "finite_creates" in
    fun () -> s () + r () + f ()
  in
  let touched = counter "dyn" "touched_gates" and seg_sets = counter "perm" "segtree_sets" in
  let jbytes = counter "dyn" "journal_bytes" in
  let snap () = (copied (), fallbacks (), carried (), rebuilt (), creates ()) in
  let c0, f0, ca0, r0, cr0 = snap () and jb0 = jbytes () in
  let edits = ref 0 and writes = ref 0 and touched_w = ref 0 and seg_w = ref 0 in
  (* an edit through the engine, then the same edit on the mirror *)
  let edit name f mirror =
    match Harness.exec ctx ~scope:"eval" name f with
    | Some () ->
        mirror ();
        incr edits;
        tcount := Oracle.tri_counts arcs;
        expected := Oracle.weighted_triangles arcs w;
        Harness.check ctx ("weighted triangles after " ^ name) (fun () -> E.value ev = !expected);
        true
    | None -> false
  in
  let next_cell = cell_order rng ~side and rounds = ref 0 in
  let step () =
    incr rounds;
    for i = 1 to writes_per_edit do
      let x = Random.State.int rng n and k = Random.State.int rng 6 in
      let t0 = touched () and s0 = seg_sets () in
      match Harness.exec ctx ~scope:"eval" "update" (fun () -> write ev wn x k) with
      | Some () ->
          if i > 1 then Harness.sample ctx light;
          incr writes;
          touched_w := !touched_w + (touched () - t0);
          seg_w := !seg_w + (seg_sets () - s0);
          expected := !expected + ((k - w.(x)) * !tcount.(x));
          w.(x) <- k;
          Harness.check ctx "weighted triangles after a write" (fun () -> E.value ev = !expected)
      | None -> ()
    done;
    let a, b = diagonal ~side (next_cell ()) in
    if edit "insert_tuple" (fun () -> E.insert_tuple ev "E" [ a; b ]) (fun () -> Oracle.add arcs a b)
    then Harness.sample ctx heavy;
    ignore (edit "delete_tuple" (fun () -> E.delete_tuple ev "E" [ a; b ]) (fun () -> Oracle.remove arcs a b))
  in
  let checkpoint () =
    Harness.off_stream ctx ~scope:"checkpoint" "static_eval" (fun () ->
        let v = static_eval nat_ops ev (valuation ~zero:0 ~one:1 w ()) in
        Harness.verify ctx "live value vs static Compact.eval" (fun () -> v = E.value ev))
  in
  let gc0 = Gc.quick_stat () in
  let ready () =
    ctx.Harness.trace
    || (Stats.count light >= Stats.min_samples 0.99 && Stats.count heavy >= Stats.min_samples 0.9)
  in
  (* end after a whole permutation of the cells, so every cell is edited
     equally often *)
  let cycle_done () = !rounds mod ((side - 1) * (side - 1)) = 0 in
  Harness.stream ctx ~ready ~cycle_done ~checkpoint step;
  let gc1 = Gc.quick_stat () in
  let c1, f1, ca1, r1, cr1 = snap () in
  let ops = !edits + !writes in
  let jb = jbytes () - jb0 in
  let replay_ms =
    Harness.off_stream ctx ~scope:"journal" "recover" (fun () ->
        let fresh, _, _, _, _ = build ~side ~seed:ctx.Harness.seed ~journal:false in
        let j = Option.get (Circuits.Dyn.journal ev.E.dyn) in
        let (), ms = Harness.timed (fun () -> span ~scope:"journal" "replay" (fun () -> E.replay fresh j)) in
        Harness.verify ctx "journal replay reproduces the live state" (fun () ->
            same_state nat_ops ev fresh);
        ms)
  in
  {
    setup_s;
    setup_raw_s;
    light;
    heavy;
    layer =
      meta_layer (E.meta ev)
      @ [
          ("compile.gates_copied_per_op", ratio (c1 - c0) !edits);
          ("compile.fallback_frac", ratio (f1 - f0) !edits);
          ("dyn.splice_carried_frac", ratio (ca1 - ca0) (ca1 - ca0 + (r1 - r0)));
          ("dyn.touched_per_update", ratio !touched_w !writes);
          ("perm.segtree_sets_per_update", ratio !seg_w !writes);
          ("perm.creates_per_struct_op", ratio (cr1 - cr0) !edits);
          ("journal.bytes_per_write", ratio jb (!writes + !edits));
          ("journal.replay_ms", replay_ms);
          ("gc.minor_words_per_op", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int (max 1 ops));
          ( "gc.major_collections_per_kop",
            1000. *. ratio (gc1.Gc.major_collections - gc0.Gc.major_collections) ops );
        ];
  }
