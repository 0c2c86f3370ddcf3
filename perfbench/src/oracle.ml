(** Answers computed straight from adjacency, independent of the
    compiler: the oracles every benchmark answer is checked against. *)

(** A directed arc set over elements [0, n), mirrored by the benchmark
    beside every instance it hands to the engine. *)
type arcs = { n : int; out : (int, unit) Hashtbl.t array; inn : (int, unit) Hashtbl.t array }

let arcs_create n = { n; out = Array.init n (fun _ -> Hashtbl.create 8); inn = Array.init n (fun _ -> Hashtbl.create 8) }
let mem a u v = Hashtbl.mem a.out.(u) v

let add a u v =
  Hashtbl.replace a.out.(u) v ();
  Hashtbl.replace a.inn.(v) u ()

let remove a u v =
  Hashtbl.remove a.out.(u) v;
  Hashtbl.remove a.inn.(v) u

(** Both arc directions of every edge of [g], as [Db.Instance.of_graph]
    stores them. *)
let of_graph (g : Graphs.Graph.t) =
  let a = arcs_create (Graphs.Graph.n g) in
  Graphs.Graph.iter_edges
    (fun u v ->
      add a u v;
      add a v u)
    g;
  a

(** [t.(x)] = #{(y, z) : E(x,y) ∧ E(y,z) ∧ E(z,x)}: the number of
    triangle valuations that start at [x]. *)
let tri_counts a =
  Array.init a.n (fun x ->
      Hashtbl.fold
        (fun y () acc ->
          Hashtbl.fold (fun z () acc -> if mem a z x then acc + 1 else acc) a.out.(y) acc)
        a.out.(x) 0)

(** Σ_xyz [E(x,y) ∧ E(y,z) ∧ E(z,x)]·w(x), in ℕ. *)
let weighted_triangles a (w : int array) =
  let t = tri_counts a in
  let s = ref 0 in
  Array.iteri (fun x c -> s := !s + (c * w.(x))) t;
  !s

(** The PageRank step at [x]: c + d·Σ_{y : E(y,x)} w(y), in ℚ. *)
let pagerank_at a ~c ~d (w : Semiring.Rat.t array) x =
  let s = Hashtbl.fold (fun y () acc -> Semiring.Rat.add acc w.(y)) a.inn.(x) Semiring.Rat.zero in
  Semiring.Rat.add c (Semiring.Rat.mul d s)

(** |{(x, y, z) : E(x,y) ∧ E(y,z) ∧ x ≠ z}|. *)
let path2_count a =
  let s = ref 0 in
  for y = 0 to a.n - 1 do
    Hashtbl.iter
      (fun x () -> Hashtbl.iter (fun z () -> if x <> z then incr s) a.out.(y))
      a.inn.(y)
  done;
  !s

let path2_holds a (ans : int array) =
  Array.length ans = 3 && mem a ans.(0) ans.(1) && mem a ans.(1) ans.(2) && ans.(0) <> ans.(2)

(** Check an enumerated answer list: every answer holds, none repeats,
    and the total equals the adjacency count. *)
let path2_answers_ok a (answers : int array list) =
  let seen = Hashtbl.create 64 in
  List.for_all
    (fun ans ->
      let fresh = not (Hashtbl.mem seen ans) in
      Hashtbl.replace seen ans ();
      fresh && path2_holds a ans)
    answers
  && List.length answers = path2_count a
