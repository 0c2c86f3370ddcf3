(** Queries, semirings and helpers shared by the workloads. *)

module E = Engine.Eval

(** Where runs leave their trace files and persisted circuits. *)
let out_dir = ".bench_build/out"

let v x = Logic.Term.Var x
let e x y = Logic.Formula.Rel ("E", [ v x; v y ])

let nat_ops = Semiring.Intf.with_int_repr (Semiring.Intf.ops_of_module (module Semiring.Instances.Nat))
let rat_ops = Semiring.Intf.ops_of_ring (module Semiring.Rat.Ring)

(** Weighted triangles, Σ_xyz [E(x,y) ∧ E(y,z) ∧ E(z,x)]·w(x), closed. *)
let wtri =
  Logic.Expr.Sum
    ( [ "x"; "y"; "z" ],
      Logic.Expr.Mul
        [
          Logic.Expr.Guard (Logic.Formula.And [ e "x" "y"; e "y" "z"; e "z" "x" ]);
          Logic.Expr.Weight ("w", [ v "x" ]);
        ] )

(** One PageRank step with free [x]: c + d·Σ_y [E(y,x)]·w(y), where the
    weight w(y) stands for y's rank share. *)
let pr_d = Semiring.Rat.of_ints 85 100
let pr_c n = Semiring.Rat.of_ints 15 (100 * n)

let pagerank n =
  Logic.Expr.Add
    [
      Logic.Expr.Const (pr_c n);
      Logic.Expr.Mul
        [
          Logic.Expr.Const pr_d;
          Logic.Expr.Sum
            ( [ "y" ],
              Logic.Expr.Mul [ Logic.Expr.Guard (e "y" "x"); Logic.Expr.Weight ("w", [ v "y" ]) ] );
        ];
    ]

(** Paths of length two, E(x,y) ∧ E(y,z) ∧ x ≠ z: the enumeration query. *)
let path2 = Logic.Formula.And [ e "x" "y"; e "y" "z"; Logic.Formula.neq (v "x") (v "z") ]

(** The rank share a ℕ weight [k] stands for in the ℚ query: (1+k)/10.
    One common denominator keeps the size of the exact rationals, and so
    the cost of ℚ arithmetic, independent of which weights a seed draws. *)
let rat_of_weight k = Semiring.Rat.of_ints (1 + k) 10

(** A benchmark span around a call into [scope]'s layer, opened only
    while the run is recording (untraced runs pay nothing for it). *)
let span ~scope name f = if Obs.Trace.is_recording () then Obs.Trace.span ~scope name f else f ()

(** An instance over [g] and a unary weight [w] holding [init], as the
    database layer loads them. *)
let load_db g ~zero init =
  span ~scope:"db" "load" @@ fun () ->
  let inst = Db.Instance.of_graph g in
  let w = Db.Weights.create ~name:"w" ~arity:1 ~zero in
  Db.Weights.fill_unary w ~n:(Db.Instance.n inst) (fun i -> init.(i));
  (inst, w)

(** Valuation of a circuit's inputs from a weight array; [query_at]
    sets the query weight of a one-variable [E.query] at that element. *)
let valuation ~zero ~one (w : 'a array) ?query_at () (name, tuple) =
  match (name, tuple) with
  | "w", [ x ] -> w.(x)
  | _, [ x ] when name = E.query_weight 0 && Some x = query_at -> one
  | _ -> zero

(** Dynamic state reached by two runs of the same engine: same circuit
    size and every gate value equal. *)
let same_state (ops : 'a Semiring.Intf.ops) (a : 'a E.t) (b : 'a E.t) =
  let da = a.E.dyn and db = b.E.dyn in
  let n = Circuits.Dyn.num_gates da in
  n = Circuits.Dyn.num_gates db
  && (let ok = ref true in
      for id = 0 to n - 1 do
        if not (ops.Semiring.Intf.equal (Circuits.Dyn.gate_value da id) (Circuits.Dyn.gate_value db id))
        then ok := false
      done;
      !ok)

(** Static evaluation of a prepared query's circuit in the compact
    runtime: the checkpoint oracle for the live dynamic value. *)
let static_eval ops (ev : 'a E.t) valuation =
  let cc = span ~scope:"compact" "freeze" (fun () -> Circuits.Compact.of_circuit ev.E.circuit) in
  span ~scope:"compact" "eval" (fun () -> Circuits.Compact.eval ops cc valuation)

(** A program counter, resolved once so reads skip the registry. *)
let counter scope name =
  match Obs.find ~scope name with
  | Some (Obs.C c) -> fun () -> Obs.Counter.get c
  | _ -> failwith (Printf.sprintf "no counter %s/%s" scope name)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(** What a workload hands back: the median set-up time (at the reference
    host speed and as measured), the latency samples (ns, at the reference
    speed) of its light and heavy request classes, and its own per-layer
    figures (the rest come from the ledger). *)
type result = {
  setup_s : float;
  setup_raw_s : float;
  light : Stats.t;
  heavy : Stats.t;
  layer : (string * float) list;
}

(** Per-layer figures every workload reports from its main compiled
    query. *)
let meta_layer (m : Engine.Compile.meta) =
  let r = m.Engine.Compile.opt in
  [
    ("graph.colors", float_of_int m.Engine.Compile.num_colors);
    ("compile.raw_gates", float_of_int r.Opt.r_gates_before);
    ("compile.subsets", float_of_int m.Engine.Compile.num_subsets);
    ("compile.shapes", float_of_int m.Engine.Compile.num_shapes);
    ("opt.shrink_ratio", ratio r.Opt.r_gates_after r.Opt.r_gates_before);
  ]
