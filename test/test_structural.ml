(* Structural updates: tuple insert/delete with localized incremental
   recompile. The spliced circuit must agree exactly with the brute-force
   reference AND with a compile-from-scratch twin after every update; the
   amortization fallback must fire when the treedepth witness outgrows
   the compiled bound; journal replay of mixed weight + structural
   batches must reconstruct the served state; and a mid-splice fault must
   leave the pre-update state untouched. *)

open Semiring

let nat_ops = Intf.ops_of_module (module Instances.Nat)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let v x = Logic.Term.Var x
let e x y = Logic.Formula.Rel ("E", [ v x; v y ])

let triangle_count =
  Logic.Expr.Sum
    ( [ "x"; "y"; "z" ],
      Logic.Expr.Guard (Logic.Formula.And [ e "x" "y"; e "y" "z"; e "z" "x" ]) )

let edge_weight =
  Logic.Expr.Sum
    ( [ "x"; "y" ],
      Logic.Expr.Mul
        [ Logic.Expr.Guard (e "x" "y"); Logic.Expr.Weight ("w", [ v "x"; v "y" ]) ] )

(* insert/delete an undirected edge = both stored arcs *)
let ins t u w =
  Engine.Eval.insert_tuple t "E" [ u; w ];
  Engine.Eval.insert_tuple t "E" [ w; u ]

let del t u w =
  Engine.Eval.delete_tuple t "E" [ u; w ];
  Engine.Eval.delete_tuple t "E" [ w; u ]

(* after every op: incremental value = reference on the live instance
   = compile-from-scratch on the live instance *)
let agree name t inst weights expr =
  let got = Engine.Eval.value t in
  let reference = Logic.Expr.eval (module Instances.Nat) inst weights expr () in
  check_int (name ^ " vs reference") reference got;
  let scratch = Engine.Eval.evaluate nat_ops inst weights expr in
  check_int (name ^ " vs scratch compile") scratch got

let counting_churn () =
  let inst = Db.Instance.of_graph (Graphs.Gen.grid 4 4) in
  let weights = Db.Weights.bundle [] in
  let t = Engine.Eval.prepare nat_ops inst weights triangle_count in
  check_int "no triangles in the grid" 0 (Engine.Eval.value t);
  (* diagonals create triangles; removing a side destroys them *)
  ins t 0 5;
  agree "after ins 0-5" t inst weights triangle_count;
  check_bool "grid diagonal makes triangles" true (Engine.Eval.value t > 0);
  ins t 1 6;
  agree "after ins 1-6" t inst weights triangle_count;
  del t 0 1;
  agree "after del 0-1" t inst weights triangle_count;
  ins t 10 15;
  agree "after ins 10-15" t inst weights triangle_count;
  del t 1 6;
  agree "after del 1-6" t inst weights triangle_count;
  let c = Engine.Eval.churn_stats t in
  check_int "inserts counted" 6 c.Engine.Eval.ch_inserts;
  check_int "deletes counted" 4 c.Engine.Eval.ch_deletes;
  (* the in-test localization claim: every op was served by a localized
     splice, and across the run far more gates crossed over than were
     rebuilt — the whole point of the affected-subtree machinery *)
  check_int "all ops localized" 10 c.Engine.Eval.ch_localized;
  check_int "no fallbacks" 0 c.Engine.Eval.ch_fallbacks;
  check_bool
    (Printf.sprintf "localized: rebuilt %d < carried %d" c.Engine.Eval.ch_gates_rebuilt
       c.Engine.Eval.ch_gates_carried)
    true
    (c.Engine.Eval.ch_gates_rebuilt < c.Engine.Eval.ch_gates_carried)

let weighted_churn () =
  let inst = Db.Instance.of_graph (Graphs.Gen.path 8) in
  let w = Db.Weights.create ~name:"w" ~arity:2 ~zero:0 in
  Db.Weights.fill_from_relation w inst "E" (fun tup -> List.fold_left ( + ) 1 tup);
  let weights = Db.Weights.bundle [ w ] in
  let t = Engine.Eval.prepare nat_ops inst weights edge_weight in
  agree "initial" t inst weights edge_weight;
  (* a structural insert followed by a weight update on the new tuple:
     the spliced circuit must expose the new input key *)
  ins t 2 6;
  Db.Weights.set w [ 2; 6 ] 11;
  Engine.Eval.update t "w" [ 2; 6 ] 11;
  agree "after ins 2-6 + weight" t inst weights edge_weight;
  (* deleting a tuple silences its weight even though the store keeps it *)
  del t 3 4;
  agree "after del 3-4" t inst weights edge_weight;
  (* weight updates on carried tuples still propagate after the splice *)
  Db.Weights.set w [ 0; 1 ] 9;
  Engine.Eval.update t "w" [ 0; 1 ] 9;
  agree "after weight on carried edge" t inst weights edge_weight;
  (* and re-inserting a deleted tuple resurrects its (kept) weight *)
  ins t 3 4;
  agree "after re-insert 3-4" t inst weights edge_weight

(* a duplicate insert / absent delete is a structured error and leaves
   the engine fully intact *)
let bad_deltas_rejected () =
  let inst = Db.Instance.of_graph (Graphs.Gen.path 5) in
  let weights = Db.Weights.bundle [] in
  let t = Engine.Eval.prepare nat_ops inst weights triangle_count in
  let before = Engine.Eval.value t in
  check_bool "duplicate insert rejected" true
    (try
       Engine.Eval.insert_tuple t "E" [ 0; 1 ];
       false
     with Robust.Error (Robust.Bad_input _) -> true);
  check_bool "absent delete rejected" true
    (try
       Engine.Eval.delete_tuple t "E" [ 0; 3 ];
       false
     with Robust.Error (Robust.Bad_input _) -> true);
  check_int "value untouched" before (Engine.Eval.value t);
  agree "still consistent" t inst weights triangle_count

(* growing a treedepth witness past the compiled bound must trip the
   amortization trigger: the update is served by a full recompile with a
   fresh coloring, and stays exactly correct *)
let fallback_on_depth_growth () =
  let inst = Db.Instance.create Db.Schema.graph_schema ~n:8 in
  let weights = Db.Weights.bundle [] in
  (* edgeless start: one color, one subset, forest of roots (depth 0) *)
  let t = Engine.Eval.prepare nat_ops ~max_depth:2 inst weights triangle_count in
  ins t 0 1;
  agree "after first edge" t inst weights triangle_count;
  check_int "single edge stays localized" 0
    (Engine.Eval.churn_stats t).Engine.Eval.ch_fallbacks;
  (* grow the path to 0-…-7 under the pinned single-color witness: any
     elimination forest of P8 has depth ≥ 3 (0-based), so the compiled
     bound of 2 must trip the amortization trigger along the way and
     re-pin a fresh multi-color coloring *)
  for i = 1 to 6 do
    ins t i (i + 1)
  done;
  agree "after path grew" t inst weights triangle_count;
  let c = Engine.Eval.churn_stats t in
  check_bool "fallback triggered" true (c.Engine.Eval.ch_fallbacks > 0);
  (* post-fallback the fresh plan keeps absorbing updates *)
  ins t 0 2;
  agree "triangle after fallback" t inst weights triangle_count;
  check_bool "triangle seen" true (Engine.Eval.value t > 0);
  del t 1 2;
  agree "delete after fallback" t inst weights triangle_count

(* replaying a journal of interleaved weight batches and structural ops
   against a fresh prepare on the pre-journal state reconstructs the
   exact served value *)
let journal_replay_mixed () =
  let inst = Db.Instance.of_graph (Graphs.Gen.path 6) in
  let inst0 = Db.Instance.copy inst in
  let w = Db.Weights.create ~name:"w" ~arity:2 ~zero:0 in
  Db.Weights.fill_from_relation w inst "E" (fun _ -> 1);
  let weights = Db.Weights.bundle [ w ] in
  let t = Engine.Eval.prepare nat_ops inst weights edge_weight in
  let j = Engine.Eval.enable_journal t in
  Engine.Eval.update t "w" [ 0; 1 ] 7;
  ins t 1 4;
  Engine.Eval.update t "w" [ 1; 4 ] 5;
  del t 2 3;
  Engine.Eval.update t "w" [ 4; 5 ] 3;
  ins t 0 2;
  let served = Engine.Eval.value t in
  check_int "journal holds the structural ops" 6
    (Circuits.Journal.structural_count j);
  (* fresh compile on the pre-journal instance; the weight store was
     never written through (unchecked updates), so the same bundle is the
     pre-journal one *)
  let t2 = Engine.Eval.prepare nat_ops inst0 weights edge_weight in
  Engine.Eval.replay t2 j;
  check_int "replay reconstructs the served value" served (Engine.Eval.value t2);
  let c2 = Engine.Eval.churn_stats t2 in
  check_int "replay re-ran the inserts" 4 c2.Engine.Eval.ch_inserts;
  check_int "replay re-ran the deletes" 2 c2.Engine.Eval.ch_deletes;
  (* replay must not have re-appended to a journal *)
  check_int "no double journaling" 6 (Circuits.Journal.structural_count j);
  (* and both engines keep agreeing on subsequent updates *)
  Engine.Eval.update t "w" [ 0; 2 ] 2;
  Engine.Eval.update t2 "w" [ 0; 2 ] 2;
  check_int "post-replay update agreement" (Engine.Eval.value t) (Engine.Eval.value t2)

(* Σ_xyz [E(x,y) ∧ E(y,z) ∧ E(z,x)] · w(x) *)
let weighted_triangles =
  Logic.Expr.Sum
    ( [ "x"; "y"; "z" ],
      Logic.Expr.Mul
        [
          Logic.Expr.Guard (Logic.Formula.And [ e "x" "y"; e "y" "z"; e "z" "x" ]);
          Logic.Expr.Weight ("w", [ v "x" ]);
        ] )

(* Σ_xy [E(x,y)] · w(x): w(x) is read only once x has an out-arc *)
let out_weight =
  Logic.Expr.Sum
    ( [ "x"; "y" ],
      Logic.Expr.Mul [ Logic.Expr.Guard (e "x" "y"); Logic.Expr.Weight ("w", [ v "x" ]) ] )

(* An engine on [g] with unary weights all 1, whose unchecked writes go
   to a second store too: the reference reads that one. *)
let unread_fixture ?max_depth g expr =
  let n = Graphs.Graph.n g in
  let inst = Db.Instance.of_graph g in
  let inst0 = Db.Instance.copy inst in
  let ones () =
    let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:0 in
    Db.Weights.fill_unary w ~n (fun _ -> 1);
    w
  in
  let weights0 = Db.Weights.bundle [ ones () ] in
  let ws = ones () in
  let written = Db.Weights.bundle [ ws ] in
  let t = Engine.Eval.prepare nat_ops ?max_depth inst weights0 expr in
  let j = Engine.Eval.enable_journal t in
  let write x k =
    Db.Weights.set ws [ x ] k;
    Engine.Eval.update t "w" [ x ] k
  in
  let check name =
    check_int name (Engine.Reference.eval nat_ops inst written expr) (Engine.Eval.value t)
  in
  (* a fresh engine on the pre-journal state, replaying [j], serves the
     same value *)
  let check_replay () =
    let t2 = Engine.Eval.prepare nat_ops ?max_depth inst0 weights0 expr in
    Engine.Eval.replay t2 j;
    check_int "replay reproduces the served value" (Engine.Eval.value t)
      (Engine.Eval.value t2)
  in
  (t, ws, j, write, check, check_replay)

(* Unchecked weight writes to tuples the circuit does not read (no
   triangle reaches them yet, or none does any more) must not be lost:
   the insert that makes the circuit read them sees the written value,
   not the prepare-time one, and a journal replay reproduces them. *)
let unread_writes_survive_splice () =
  let g = Graphs.Graph.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4) ] in
  let t, ws, j, write, check, check_replay = unread_fixture g weighted_triangles in
  write 0 3;
  for x = 0 to 5 do
    write x 7
  done;
  (* a run of unread writes is one journal batch, last value per tuple *)
  (match Circuits.Journal.batches j with
  | [ b ] ->
      check_bool "one entry per tuple, last value" true
        (Circuits.Journal.writes b = List.init 6 (fun x -> (("w", [ x ]), 7)))
  | bs -> Alcotest.failf "expected one journal batch, got %d" (List.length bs));
  List.iter
    (fun (a, b) -> Engine.Eval.insert_tuple t "E" [ a; b ])
    [ (0, 2); (2, 0); (4, 5); (5, 4); (3, 5); (5, 3) ];
  check "writes before the triangles existed";
  check_int "two weighted triangles" 84 (Engine.Eval.value t);
  (* w(1) written while read, then unread, read again; w(0) written
     while unread in between *)
  write 1 3;
  del t 0 2;
  check "after the triangle went";
  write 0 2;
  ins t 0 2;
  check "writes before and while the triangle was gone";
  (* a batch mixing read and unread tuples *)
  del t 3 5;
  Engine.Eval.update_many t [ ("w", [ 4 ], 2); ("w", [ 0 ], 4) ];
  Db.Weights.set ws [ 4 ] 2;
  Db.Weights.set ws [ 0 ] 4;
  ins t 3 5;
  check "mixed batch";
  check_replay ()

(* the same on the fallback recompile: each arc (i+1, i) grows the path
   under the pinned coloring, and is the first to make the circuit read
   w(i+1) — so whichever of them trips the depth bound brings an unread
   write into the fresh circuit *)
let unread_writes_survive_fallback () =
  let g = Graphs.Graph.of_edges ~n:8 [] in
  let t, _, _, write, check, check_replay = unread_fixture ~max_depth:2 g out_weight in
  for x = 0 to 7 do
    write x (x + 10)
  done;
  for i = 0 to 6 do
    Engine.Eval.insert_tuple t "E" [ i + 1; i ];
    check (Printf.sprintf "after arc %d->%d" (i + 1) i);
    Engine.Eval.insert_tuple t "E" [ i; i + 1 ]
  done;
  check "after the path grew";
  check_bool "fallback recompile exercised" true
    ((Engine.Eval.churn_stats t).Engine.Eval.ch_fallbacks > 0);
  check_replay ()

(* a fault mid-splice rolls the whole structural wave back: instance,
   live graph, circuit and value are the pre-update ones *)
let splice_fault_rolls_back () =
  let inst = Db.Instance.of_graph (Graphs.Gen.grid 3 3) in
  let weights = Db.Weights.bundle [] in
  let t = Engine.Eval.prepare nat_ops inst weights triangle_count in
  let before = Engine.Eval.value t in
  Circuits.Dyn.set_fault_hook t.Engine.Eval.dyn
    (Some (fun _ -> failwith "injected splice fault"));
  check_bool "splice fault surfaces as Rolled_back" true
    (try
       Engine.Eval.insert_tuple t "E" [ 0; 4 ];
       false
     with Circuits.Dyn.Rolled_back _ -> true);
  Circuits.Dyn.set_fault_hook t.Engine.Eval.dyn None;
  check_bool "tuple reverted" false (Db.Instance.mem inst "E" [ 0; 4 ]);
  check_int "value unchanged" before (Engine.Eval.value t);
  check_int "no churn recorded"
    0 (Engine.Eval.churn_stats t).Engine.Eval.ch_inserts;
  (* with the hook gone the same insert commits *)
  ins t 0 4;
  agree "insert after rollback" t inst weights triangle_count

(* checked variants: structured errors out, state preserved, degraded
   backend observes the same tuple set *)
let checked_structural () =
  let inst = Db.Instance.of_graph (Graphs.Gen.path 6) in
  let weights = Db.Weights.bundle [] in
  let ck =
    match Engine.Eval.prepare_checked nat_ops inst weights triangle_count with
    | Ok ck -> ck
    | Error e -> Alcotest.failf "prepare_checked: %s" (Robust.to_string e)
  in
  (match Engine.Eval.insert_tuple_checked ck "E" [ 0; 2 ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "insert_checked: %s" (Robust.to_string e));
  (match Engine.Eval.insert_tuple_checked ck "E" [ 0; 2 ] with
  | Ok () -> Alcotest.fail "duplicate insert accepted"
  | Error (Robust.Bad_input _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Robust.to_string e));
  (match Engine.Eval.delete_tuple_checked ck "E" [ 5; 0 ] with
  | Ok () -> Alcotest.fail "absent delete accepted"
  | Error (Robust.Bad_input _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Robust.to_string e));
  (match Engine.Eval.insert_tuple_checked ck "E" [ 2; 0 ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "insert_checked: %s" (Robust.to_string e));
  match Engine.Eval.value_checked ck with
  | Ok got ->
      check_int "checked value vs reference"
        (Logic.Expr.eval (module Instances.Nat) inst weights triangle_count ())
        got
  | Error e -> Alcotest.failf "value_checked: %s" (Robust.to_string e)

let suite =
  [
    Alcotest.test_case "counting churn (localized)" `Quick counting_churn;
    Alcotest.test_case "weighted churn" `Quick weighted_churn;
    Alcotest.test_case "bad deltas rejected" `Quick bad_deltas_rejected;
    Alcotest.test_case "fallback on depth growth" `Quick fallback_on_depth_growth;
    Alcotest.test_case "journal replay (mixed batches)" `Quick journal_replay_mixed;
    Alcotest.test_case "unread writes survive a splice" `Quick unread_writes_survive_splice;
    Alcotest.test_case "unread writes survive a fallback" `Quick
      unread_writes_survive_fallback;
    Alcotest.test_case "splice fault rolls back" `Quick splice_fault_rolls_back;
    Alcotest.test_case "checked structural ops" `Quick checked_structural;
  ]
