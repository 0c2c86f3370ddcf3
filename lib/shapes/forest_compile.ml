(** Circuit construction over a rooted forest, per shape (Lemma 29 and its
    Claim 1). For a shape with roots r₁ … r_m and a forest with roots
    v₁ … v_N, the circuit is a permanent gate over the m × N matrix whose
    (r, v) entry is

      [constraints of r hold at v] · Π weights at v · C(subtrees of r, subtree of v),

    recursing in lockstep down the two forests. Injectivity of the
    permanent's assignments is exactly injectivity of forest embeddings.
    Entries that are statically zero are pruned at emission (see
    {!compile_shape}), so the optimizer never sees the dead circuit. *)

type fstage = {
  forest : Graphs.Forest.t;  (** reindexed vertices 0 … m−1 *)
  orig : int array;  (** forest vertex → original database element *)
  holds : string -> int list -> bool;
      (** relation membership over original elements (colors included) *)
  dynamic : string -> bool;
      (** relations encoded as ±weight inputs (Lemma 40) instead of being
          checked at compile time — this is what makes Gaifman-preserving
          updates possible without recompiling *)
}

(** Input-key names for the v⁺_R / v⁻_R weights of Lemma 40. *)
let pos_weight rel = "__pos_" ^ rel

let neg_weight rel = "__neg_" ^ rel

(** The (w, ā) input key for a weight anchored at forest node [v] with
    argument depths [wdepths]. *)
let weight_key fs v (w : Shape.weight_spec) : Circuits.Circuit.input_key =
  let tuple =
    List.map
      (fun l ->
        match Graphs.Forest.ancestor_at_depth fs.forest v l with
        | Some a -> fs.orig.(a)
        | None -> invalid_arg "Forest_compile: constraint depth exceeds node depth")
      w.Shape.wdepths
  in
  (w.Shape.sym, tuple)

let constraint_tuple fs v (c : Shape.rel_constraint) =
  List.map
    (fun l ->
      match Graphs.Forest.ancestor_at_depth fs.forest v l with
      | Some a -> fs.orig.(a)
      | None -> invalid_arg "Forest_compile: constraint depth exceeds node depth")
    c.Shape.depths

let rel_holds fs v (c : Shape.rel_constraint) : bool =
  fs.holds c.Shape.rel (constraint_tuple fs v c) = c.Shape.pos

(** Sentinel gate id for a statically-zero subcircuit: no gate is emitted
    for it, and callers drop it from sums and give up on products that
    contain it. Exact because zero annihilates in every semiring the
    compiler targets (the same 0/1 axioms {!Opt} rewrites under). *)
let zero_gate = -1

(* Permanent over [rows] (entries may be [zero_gate]), or [zero_gate] when
   it is statically zero: an all-zero row has no non-zero entry to
   assign, and once all-zero columns are dropped, fewer columns than rows
   leave no injective assignment. Remaining zero entries become a real
   constant from [get_zero]. *)
let pruned_perm b ~get_zero (rows : int array array) : int =
  let nrows = Array.length rows and ncols = Array.length rows.(0) in
  let live = Array.make ncols false in
  let nlive = ref 0 in
  Array.iter
    (Array.iteri (fun j g ->
         if g <> zero_gate && not live.(j) then begin
           live.(j) <- true;
           incr nlive
         end))
    rows;
  if !nlive < nrows then zero_gate
  else begin
    let keep = Array.make !nlive 0 in
    let k = ref 0 in
    Array.iteri
      (fun j l ->
        if l then begin
          keep.(!k) <- j;
          incr k
        end)
      live;
    Circuits.Circuit.perm b
      (Array.map
         (fun row ->
           Array.map (fun j -> if row.(j) = zero_gate then get_zero () else row.(j)) keep)
         rows)
  end

(** Compile one shape into a gate of the builder [b], or [zero_gate] when
    the shape is statically zero over this forest stage. A (shape node,
    forest node) pair whose static constraints fail emits nothing; a
    permanent is pruned as in [pruned_perm]; weight and Lemma-40 inputs
    and the product are emitted only once the children are known to be
    non-zero. Dynamic relations are never pruned on — they are inputs
    that a later update may flip. Each (shape node, forest node) pair is
    reached from its parent pair only, so the recursion visits it at most
    once and needs no memo: the work is linear in the forest size for a
    fixed shape. *)
let compile_shape (type a) (b : a Circuits.Circuit.builder) (fs : fstage)
    ~(zero : a) ~(one : a) (s : Shape.t) : int =
  if Shape.num_nodes s = 0 then Circuits.Circuit.const b one
  else begin
    let zero_const = ref (-1) in
    let get_zero () =
      if !zero_const < 0 then zero_const := Circuits.Circuit.const b zero;
      !zero_const
    in
    let one_const = ref (-1) in
    let get_one () =
      if !one_const < 0 then one_const := Circuits.Circuit.const b one;
      !one_const
    in
    (* rows of [sids] × [cols], built row by row so that an all-zero row
       (every row, when there are no columns) stops the remaining rows
       from being emitted at all *)
    let rec perm_over sids cols =
      let rows = Array.make (List.length sids) [||] in
      let rec fill i = function
        | [] -> pruned_perm b ~get_zero rows
        | sid :: rest ->
            let row = Array.map (fun v -> subtree sid v) cols in
            if Array.for_all (fun g -> g = zero_gate) row then zero_gate
            else begin
              rows.(i) <- row;
              fill (i + 1) rest
            end
      in
      fill 0 sids
    (* gate computing: shape subtree rooted at [sid] embeds at forest node
       [v] (with sid ↦ v), times the weights along the way *)
    and subtree sid v =
      let sn = s.nodes.(sid) in
      if
        not
          (List.for_all
             (fun (c : Shape.rel_constraint) -> fs.dynamic c.Shape.rel || rel_holds fs v c)
             sn.Shape.rels)
      then zero_gate
      else
        let below =
          match sn.Shape.children with
          | [] -> None
          | cs -> Some (perm_over cs (Array.of_list (Graphs.Forest.children fs.forest v)))
        in
        if below = Some zero_gate then zero_gate
        else begin
          let wgates =
            List.map (fun w -> Circuits.Circuit.input b (weight_key fs v w)) sn.Shape.weights
            @ List.filter_map
                (fun (c : Shape.rel_constraint) ->
                  if fs.dynamic c.Shape.rel then
                    let name =
                      if c.Shape.pos then pos_weight c.Shape.rel else neg_weight c.Shape.rel
                    in
                    Some (Circuits.Circuit.input b (name, constraint_tuple fs v c))
                  else None)
                sn.Shape.rels
          in
          match wgates @ Option.to_list below with
          | [] -> get_one ()
          | gs -> Circuits.Circuit.mul b gs
        end
    in
    perm_over s.roots (Array.of_list (Graphs.Forest.roots fs.forest))
  end
