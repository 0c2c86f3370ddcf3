(* Tests for the compact CSR circuit runtime and its persisted form:

   1. qcheck differential eval: [Compact.eval] over the flat arrays agrees
      with the boxed [Circuit.eval] on random *optimized* circuits in all
      four semirings (nat / int-ring / bool / zmod6) — nat and int-ring
      additionally through the machine-int Bigarray plane
      ([Intf.with_int_repr]), bool and zmod6 through the boxed plane
      fallback;
   2. qcheck dynamic twins: a compact and a boxed [Dyn] over the identical
      optimized circuit, fed the same [set_inputs] batches, agree on every
      gate value in all three permanent strategies (General/Segtree,
      Ring, Finite), and end-to-end [Eval.prepare]/[update_many] twins
      agree with [Engine.Reference] on random sparse databases;
   3. qcheck rollback: a fault injected at a random position of an update
      wave on the *compact* runtime rolls back to the exact pre-wave state
      (rollback ∘ partial-wave = identity), and the structure stays usable;
   4. loader fuzz, mirroring the PR 6 journal corruption tests: random bit
      flips, truncations, and version-byte mutations of a serialized
      circuit are rejected as [Robust.Bad_input] — never a crash, hang, or
      blind allocation — and save → load → save is byte-identical;
   5. format stability: the two golden .spqc files committed under
      test/golden/ (written by test/gen_golden.ml) load under the current
      reader and evaluate to their recorded values. *)

open Semiring
module Circuit = Circuits.Circuit
module Compact = Circuits.Compact
module Dyn = Circuits.Dyn

let nat_ops = Intf.ops_of_module (module Instances.Nat)
let int_ops = Intf.ops_of_ring (module Instances.Int_ring)
let bool_ops = Intf.ops_of_finite (module Instances.Bool)
let z6_ops = Intf.ops_of_finite (module Zmod.Z6)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let t p = QCheck_alcotest.to_alcotest p

(* random circuit over inputs ("w", [0..n-1]), same shape as the optimizer
   and recovery tests: adds, muls, 2x2 permanents, and constants *)
let random_circuit (type a) ~(zero : a) ~(one : a) ~(mk : int -> a) seed n_inputs :
    a Circuit.t =
  let rng = Graphs.Rand.create seed in
  let b = Circuit.builder () in
  let inputs = List.init n_inputs (fun i -> Circuit.input b ("w", [ i ])) in
  let pool = ref (Array.of_list (Circuit.const b zero :: Circuit.const b one :: inputs)) in
  let pick () = !pool.(Graphs.Rand.int rng (Array.length !pool)) in
  for _ = 1 to 14 do
    let g =
      match Graphs.Rand.int rng 6 with
      | 0 -> Circuit.add b [ pick (); pick (); pick () ]
      | 1 -> Circuit.add b [ pick (); pick () ]
      | 2 -> Circuit.mul b [ pick (); pick () ]
      | 3 -> Circuit.mul b [ pick (); pick (); pick () ]
      | 4 -> Circuit.perm b [| [| pick (); pick () |]; [| pick (); pick () |] |]
      | _ -> Circuit.const b (mk (Graphs.Rand.int rng 100))
    in
    pool := Array.append !pool [| g |]
  done;
  let out = Circuit.add b (Array.to_list !pool) in
  Circuit.finish b ~output:out

(* ------------------------------ 1. compact eval = boxed eval ----------- *)

let compact_eval_eq_boxed (type a) name (ops : a Intf.ops) ~(zero : a) ~(one : a)
    ~(mk : int -> a) =
  t
    (QCheck.Test.make ~count:60
       ~name:(Printf.sprintf "compact eval = boxed eval: %s" name)
       QCheck.(int_range 0 100000)
       (fun seed ->
         let c = random_circuit ~zero ~one ~mk seed 6 in
         let o = Opt.run ~zero ~one ~equal:ops.Intf.equal c in
         let cc = Compact.of_circuit o.Opt.circuit in
         let v = function "w", [ i ] -> mk ((i * 31) + seed) | _ -> zero in
         ops.Intf.equal (Compact.eval ops cc v) (Circuit.eval ops o.Opt.circuit v)))

(* ------------------------------ 2. dynamic twins ----------------------- *)

let dyn_twins (type a) mode name (ops : a Intf.ops) ~(zero : a) ~(one : a)
    ~(mk : int -> a) =
  t
    (QCheck.Test.make ~count:40
       ~name:(Printf.sprintf "compact Dyn = boxed Dyn: %s" name)
       QCheck.(
         pair (int_range 0 1000)
           (small_list (small_list (pair (int_range 0 5) (int_range 0 50)))))
       (fun (seed, batches) ->
         let c = random_circuit ~zero ~one ~mk seed 6 in
         let o = Opt.run ~zero ~one ~equal:ops.Intf.equal c in
         let valuation = function "w", [ i ] -> mk i | _ -> zero in
         (* the identical circuit object, so gate ids line up by
            construction on both runtimes *)
         let dc = Dyn.create ~mode ~backend:Dyn.Compact ops o.Opt.circuit valuation in
         let db = Dyn.create ~mode ~backend:Dyn.Boxed ops o.Opt.circuit valuation in
         check_bool "backends" true (Dyn.backend dc = Dyn.Compact && Dyn.backend db = Dyn.Boxed);
         List.for_all
           (fun batch ->
             let writes =
               List.filter_map
                 (fun (i, x) ->
                   let key = ("w", [ i ]) in
                   if Dyn.has_input dc key then Some (key, mk x) else None)
                 batch
             in
             Dyn.set_inputs dc writes;
             Dyn.set_inputs db writes;
             let ok = ref (Dyn.num_gates dc = Dyn.num_gates db) in
             for id = 0 to Dyn.num_gates dc - 1 do
               if not (ops.Intf.equal (Dyn.gate_value dc id) (Dyn.gate_value db id)) then
                 ok := false
             done;
             !ok && ops.Intf.equal (Dyn.value dc) (Dyn.value db))
           batches))

(* end-to-end through the engine on random sparse databases: both storage
   backends and the brute-force reference agree after batched updates *)
let vx x = Logic.Term.Var x
let e x y = Logic.Formula.Rel ("E", [ vx x; vx y ])

let expr_wedge =
  Logic.Expr.Sum
    ( [ "x"; "y" ],
      Logic.Expr.Mul
        [
          Logic.Expr.Guard (e "x" "y");
          Logic.Expr.Weight ("w", [ vx "x" ]);
          Logic.Expr.Weight ("w", [ vx "y" ]);
        ] )

let engine_backend_twins (type a) name (ops : a Intf.ops) (mk : int -> a) ~count =
  t
    (QCheck.Test.make ~count
       ~name:(Printf.sprintf "engine compact = boxed = reference: %s" name)
       QCheck.(pair (int_range 4 30) (int_range 0 10000))
       (fun (n, seed) ->
         let g = Graphs.Gen.random_bounded_degree ~seed ~n ~max_deg:3 in
         let inst = Db.Instance.of_graph g in
         let w = Db.Weights.create ~name:"w" ~arity:1 ~zero:ops.Intf.zero in
         Db.Weights.fill_unary w ~n (fun i -> mk ((i * 7) + seed));
         let weights = Db.Weights.bundle [ w ] in
         let prep backend =
           Engine.Eval.prepare ops ~backend ~tfa_rounds:1 inst weights expr_wedge
         in
         let evc = prep Dyn.Compact and evb = prep Dyn.Boxed in
         let rng = Graphs.Rand.create (seed + 1) in
         let ok = ref true in
         for round = 1 to 3 do
           let batch =
             List.init 5 (fun j ->
                 ("w", [ Graphs.Rand.int rng n ], mk (seed + (round * 17) + j)))
           in
           (* write through so the reference sees the same weights *)
           List.iter (fun (_, tup, v) -> Db.Weights.set w tup v) batch;
           Engine.Eval.update_many evc batch;
           Engine.Eval.update_many evb batch;
           let want = Engine.Reference.eval ops inst weights expr_wedge in
           if
             not
               (ops.Intf.equal (Engine.Eval.value evc) (Engine.Eval.value evb)
               && ops.Intf.equal (Engine.Eval.value evc) want)
           then ok := false
         done;
         !ok))

(* ------------------------------ 3. rollback on the compact runtime ----- *)

let snapshot d = Array.init (Dyn.num_gates d) (Dyn.gate_value d)

let same_values (type a) (ops : a Intf.ops) (xs : a array) (ys : a array) =
  Array.length xs = Array.length ys
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if not (ops.Intf.equal x ys.(i)) then ok := false) xs;
  !ok

let rollback_identity_compact (type a) mode name (ops : a Intf.ops) ~(zero : a)
    ~(one : a) ~(mk : int -> a) =
  t
    (QCheck.Test.make ~count:60
       ~name:(Printf.sprintf "compact rollback is the identity: %s" name)
       QCheck.(
         triple (int_range 0 100000) (int_range 1 12)
           (small_list (pair (int_range 0 5) (int_range 0 50))))
       (fun (seed, fuse, batch) ->
         let c = random_circuit ~zero ~one ~mk seed 6 in
         let vals = Array.init 6 (fun i -> mk ((i * 3) + seed)) in
         let valuation = function "w", [ i ] -> vals.(i) | _ -> zero in
         let d = Dyn.create ~mode ~backend:Dyn.Compact ops c valuation in
         let writes =
           List.filter_map
             (fun (i, x) ->
               let key = ("w", [ i ]) in
               if Dyn.has_input d key then Some (key, i, mk x) else None)
             batch
         in
         let dyn_writes = List.map (fun (key, _, v) -> (key, v)) writes in
         let pre = snapshot d in
         let ticks = ref 0 in
         Dyn.set_fault_hook d
           (Some
              (fun _ ->
                incr ticks;
                if !ticks = fuse then failwith "scheduled fault"));
         let commit () =
           List.iter (fun (_, i, v) -> vals.(i) <- v) writes;
           ops.Intf.equal (Dyn.value d) (Circuit.eval ops c valuation)
         in
         match Dyn.set_inputs d dyn_writes with
         | () ->
             Dyn.set_fault_hook d None;
             commit ()
         | exception Dyn.Rolled_back _ ->
             Dyn.set_fault_hook d None;
             if Dyn.poisoned d <> None then
               QCheck.Test.fail_report "rolled-back circuit must not be poisoned";
             if not (same_values ops pre (snapshot d)) then
               QCheck.Test.fail_report
                 "rollback did not restore every compact gate value";
             Dyn.set_inputs d dyn_writes;
             commit ()))

(* ------------------------------ 4. loader fuzz ------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_tmp f =
  let path = Filename.temp_file "sparseq_test" ".spqc" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () ->
      f path)

(* a serialized random optimized circuit, as bytes *)
let serialized seed =
  let c = random_circuit ~zero:0 ~one:1 ~mk:(fun i -> i mod 7) seed 6 in
  let o = Opt.run ~zero:0 ~one:1 c in
  let cc = Compact.of_circuit o.Opt.circuit in
  with_tmp (fun path ->
      Compact.save ~tag:"nat" cc path;
      read_file path)

let rejected bytes =
  with_tmp (fun path ->
      write_file path bytes;
      match Compact.load path with
      | exception Robust.Error (Robust.Bad_input _) -> true
      | exception e ->
          QCheck.Test.fail_reportf "wrong exception %s" (Printexc.to_string e)
      | _ -> false)

let fuzz_bit_flips =
  t
    (QCheck.Test.make ~count:120 ~name:"loader fuzz: any bit flip is Bad_input"
       QCheck.(pair (int_range 0 1000) (int_range 0 1_000_000))
       (fun (seed, flip) ->
         let bytes = serialized seed in
         let bit = flip mod (String.length bytes * 8) in
         let corrupt = Bytes.of_string bytes in
         let i = bit / 8 in
         Bytes.set corrupt i (Char.chr (Char.code (Bytes.get corrupt i) lxor (1 lsl (bit mod 8))));
         rejected (Bytes.to_string corrupt)))

let fuzz_truncations =
  t
    (QCheck.Test.make ~count:120 ~name:"loader fuzz: any truncation is Bad_input"
       QCheck.(pair (int_range 0 1000) (int_range 0 1_000_000))
       (fun (seed, cut) ->
         let bytes = serialized seed in
         let keep = cut mod String.length bytes in
         rejected (String.sub bytes 0 keep)))

let fuzz_version_byte =
  t
    (QCheck.Test.make ~count:40 ~name:"loader fuzz: version mutations are Bad_input"
       QCheck.(pair (int_range 0 1000) (int_range 0 255))
       (fun (seed, b) ->
         let bytes = serialized seed in
         (* byte 4 is the version digit of "SPQC1\n"; any other value must
            be rejected as an unsupported version, not mis-parsed *)
         QCheck.assume (Char.chr b <> bytes.[4]);
         let corrupt = Bytes.of_string bytes in
         Bytes.set corrupt 4 (Char.chr b);
         rejected (Bytes.to_string corrupt)))

let fuzz_trailing_garbage () =
  let bytes = serialized 7 in
  check_bool "trailing bytes rejected" true (rejected (bytes ^ "\x00"));
  check_bool "doubled file rejected" true (rejected (bytes ^ bytes));
  check_bool "empty file rejected" true (rejected "")

let save_load_save_identity =
  t
    (QCheck.Test.make ~count:40 ~name:"save -> load -> save is byte-identical"
       QCheck.(int_range 0 100000)
       (fun seed ->
         let c = random_circuit ~zero:0 ~one:1 ~mk:(fun i -> (i mod 9) - 4) seed 6 in
         let o = Opt.run ~zero:0 ~one:1 c in
         let cc = Compact.of_circuit o.Opt.circuit in
         with_tmp (fun p1 ->
             with_tmp (fun p2 ->
                 Compact.save ~tag:"int" cc p1;
                 let cc2, tag = Compact.load p1 in
                 check_string "tag survives" "int" tag;
                 Compact.save ~tag cc2 p2;
                 read_file p1 = read_file p2))))

let roundtrip_eval () =
  (* save → load preserves evaluation bit-for-bit, machine-int plane included *)
  List.iter
    (fun seed ->
      let c = random_circuit ~zero:0 ~one:1 ~mk:(fun i -> i mod 7) seed 6 in
      let o = Opt.run ~zero:0 ~one:1 c in
      let cc = Compact.of_circuit o.Opt.circuit in
      let v = function "w", [ i ] -> i + 2 | _ -> 0 in
      let iops = Intf.with_int_repr nat_ops in
      with_tmp (fun path ->
          Compact.save ~tag:"nat" cc path;
          let cc2, _ = Compact.load path in
          check_int (Printf.sprintf "seed %d reload eval" seed) (Compact.eval iops cc v)
            (Compact.eval iops cc2 v)))
    [ 3; 44; 512; 9000 ]

(* ------------------------------ 5. golden format stability ------------- *)

(* The two .spqc files under test/golden/ were written by test/gen_golden.ml
   when the SPQC1 format was introduced; every future reader must keep
   loading them to these exact values. Regenerating the files instead of
   keeping them loadable is a format break. *)
let golden_path name =
  (* `dune runtest` runs the binary from _build/default/test with the
     (deps) stanza's copy of golden/ beside it; a bare `dune exec` from
     the project root finds the source-tree fixtures instead *)
  let candidates =
    [
      Filename.concat (Filename.concat (Filename.dirname Sys.executable_name) "golden") name;
      Filename.concat "golden" name;
      Filename.concat "test/golden" name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let golden_stability () =
  let cc_nat, tag_nat = Compact.load (golden_path "nat_small.spqc") in
  check_string "nat tag" "nat" tag_nat;
  let v = function "w", [ i ] -> i + 1 | _ -> 0 in
  check_int "nat golden value" 43 (Compact.eval (Intf.with_int_repr nat_ops) cc_nat v);
  let cc_int, tag_int = Compact.load (golden_path "int_perm.spqc") in
  check_string "int tag" "int" tag_int;
  check_int "int golden value" (-5)
    (Compact.eval (Intf.with_int_repr int_ops) cc_int (function
      | "w", [ i ] -> (2 * i) - 3
      | _ -> 0))

(* journal_weights.spqj was written by gen_golden before SPQJ1 grew the
   structural-op record type: the current reader must keep decoding it to
   the exact recorded batches, and re-saving it must be byte-identical —
   the weight-batch encoding is pinned forever. *)
let golden_journal_stability () =
  let module Journal = Circuits.Journal in
  let path = golden_path "journal_weights.spqj" in
  let j : int Journal.t = Journal.load path in
  check_int "batch count" 3 (Journal.length j);
  check_int "structural count" 0 (Journal.structural_count j);
  check_bool "verifies" true (Journal.verify j = None);
  (match Journal.batches j with
  | [ b0; b1; b2 ] ->
      check_int "seq 0" 0 b0.Journal.seq;
      check_int "seq 1" 1 b1.Journal.seq;
      check_int "seq 2" 2 b2.Journal.seq;
      check_bool "batch 0 writes" true
        (Journal.writes b0 = [ (("w", [ 0 ]), 5); (("w", [ 1 ]), 7) ]);
      check_bool "batch 1 empty" true (Journal.writes b1 = []);
      check_bool "batch 2 writes" true
        (Journal.writes b2 = [ (("__qv0", [ 2 ]), 1); (("w", [ 0 ]), 0) ]);
      List.iter
        (fun b -> check_bool "no structural op" true (Journal.structural b = None))
        [ b0; b1; b2 ]
  | bs -> Alcotest.failf "expected 3 batches, got %d" (List.length bs));
  let read_file p =
    let ic = open_in_bin p in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    really_input_string ic (in_channel_length ic)
  in
  let tmp = Filename.temp_file "sparseq_golden_journal" ".spqj" in
  Fun.protect ~finally:(fun () -> Sys.remove tmp) @@ fun () ->
  Journal.save j tmp;
  check_bool "re-save byte-identical" true (read_file tmp = read_file path)

(* mixed weight + structural journal round trip: the negative-length frame
   introduced for structural ops survives save/load, and a pre-extension
   reader's plausibility check would reject it rather than misdecode. *)
let journal_structural_round_trip () =
  let module Journal = Circuits.Journal in
  let j : int Journal.t = Journal.create () in
  Journal.append j [ (("w", [ 0 ]), 3) ];
  Journal.append_structural j ~insert:true ~rel:"E" ~tup:[ 1; 2 ];
  Journal.append j [];
  Journal.append_structural j ~insert:false ~rel:"E" ~tup:[ 1; 2 ];
  check_int "structural count" 2 (Journal.structural_count j);
  check_bool "verifies" true (Journal.verify j = None);
  let tmp = Filename.temp_file "sparseq_struct_journal" ".spqj" in
  Fun.protect ~finally:(fun () -> Sys.remove tmp) @@ fun () ->
  Journal.save j tmp;
  let j2 : int Journal.t = Journal.load tmp in
  check_int "batch count" 4 (Journal.length j2);
  check_int "structural count survives" 2 (Journal.structural_count j2);
  List.iter2
    (fun (b : int Journal.batch) (b2 : int Journal.batch) ->
      check_int "seq" b.Journal.seq b2.Journal.seq;
      check_bool "writes" true (Journal.writes b = Journal.writes b2);
      check_bool "structural" true (Journal.structural b = Journal.structural b2))
    (Journal.batches j) (Journal.batches j2);
  match Journal.structural (List.nth (Journal.batches j2) 1) with
  | Some { Journal.s_insert = true; s_rel = "E"; s_tup = [ 1; 2 ] } -> ()
  | _ -> Alcotest.fail "structural op did not survive the round trip"

(* Records are held as their marshalled payloads: [iter] decodes them one
   at a time, in the commit order [batches] gives, the open batch of
   unread writes included. *)
let journal_iter_eq_batches () =
  let module Journal = Circuits.Journal in
  let j : int Journal.t = Journal.create () in
  Journal.append j [ (("w", [ 0 ]), 3) ];
  Journal.append_unread j [ (("w", [ 4 ]), 1) ];
  Journal.append_unread j [ (("w", [ 5 ]), 2); (("w", [ 4 ]), 6) ];
  Journal.append_structural j ~insert:true ~rel:"E" ~tup:[ 1; 2 ];
  Journal.append_unread j [ (("w", [ 4 ]), 7) ];
  let seen = ref [] in
  Journal.iter (fun b -> seen := b :: !seen) j;
  let listed = Journal.batches j in
  check_int "iter visits every batch" (List.length listed) (List.length !seen);
  List.iter2
    (fun (b : int Journal.batch) (b2 : int Journal.batch) ->
      check_int "seq" b.Journal.seq b2.Journal.seq;
      check_bool "writes" true (Journal.writes b = Journal.writes b2);
      check_bool "structural" true (Journal.structural b = Journal.structural b2))
    listed (List.rev !seen);
  check_bool "unread writes keep the last value per key, first-write order" true
    (List.map Journal.writes listed
    = [ [ (("w", [ 0 ]), 3) ]; [ (("w", [ 4 ]), 6); (("w", [ 5 ]), 2) ]; []; [ (("w", [ 4 ]), 7) ] ]);
  check_bool "verifies" true (Journal.verify j = None)

let suite =
  [
    compact_eval_eq_boxed "nat (Bigarray plane)" (Intf.with_int_repr nat_ops) ~zero:0
      ~one:1 ~mk:(fun i -> i mod 7);
    compact_eval_eq_boxed "nat (boxed plane)" nat_ops ~zero:0 ~one:1
      ~mk:(fun i -> i mod 7);
    compact_eval_eq_boxed "int-ring (Bigarray plane)" (Intf.with_int_repr int_ops)
      ~zero:0 ~one:1
      ~mk:(fun i -> (i mod 9) - 4);
    compact_eval_eq_boxed "bool" bool_ops ~zero:false ~one:true ~mk:(fun i -> i mod 3 = 0);
    compact_eval_eq_boxed "zmod6" z6_ops ~zero:Zmod.Z6.zero ~one:Zmod.Z6.one
      ~mk:Zmod.Z6.of_int;
    dyn_twins Dyn.General "general/nat" (Intf.with_int_repr nat_ops) ~zero:0 ~one:1
      ~mk:(fun i -> i mod 7);
    dyn_twins Dyn.Ring "ring/int" (Intf.with_int_repr int_ops) ~zero:0 ~one:1
      ~mk:(fun i -> (i mod 9) - 4);
    dyn_twins Dyn.Finite "finite/zmod6" z6_ops ~zero:Zmod.Z6.zero ~one:Zmod.Z6.one
      ~mk:Zmod.Z6.of_int;
    engine_backend_twins "wedge/nat" nat_ops (fun i -> i mod 5) ~count:15;
    engine_backend_twins "wedge/int-ring" int_ops (fun i -> (i mod 9) - 4) ~count:15;
    rollback_identity_compact Dyn.General "general/nat" (Intf.with_int_repr nat_ops)
      ~zero:0 ~one:1
      ~mk:(fun i -> i mod 7);
    rollback_identity_compact Dyn.Ring "ring/int" (Intf.with_int_repr int_ops) ~zero:0
      ~one:1
      ~mk:(fun i -> (i mod 9) - 4);
    rollback_identity_compact Dyn.Finite "finite/zmod6" z6_ops ~zero:Zmod.Z6.zero
      ~one:Zmod.Z6.one ~mk:Zmod.Z6.of_int;
    fuzz_bit_flips;
    fuzz_truncations;
    fuzz_version_byte;
    Alcotest.test_case "loader fuzz: trailing/empty" `Quick fuzz_trailing_garbage;
    save_load_save_identity;
    Alcotest.test_case "save/load eval round trip" `Quick roundtrip_eval;
    Alcotest.test_case "golden format stability" `Quick golden_stability;
    Alcotest.test_case "golden journal stability" `Quick golden_journal_stability;
    Alcotest.test_case "journal structural round trip" `Quick
      journal_structural_round_trip;
    Alcotest.test_case "journal iter = batches" `Quick journal_iter_eq_batches;
  ]
