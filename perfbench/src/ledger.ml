(** The per-layer ledger of the traced run: span self times folded into
    layer totals, per-span duration samples, and how much of the traced
    wall time falls inside a named span at all. *)

module T = Obs.Trace

(** The repository's layers, in pipeline order. *)
let layers =
  [ "db"; "logic"; "graph"; "compile"; "opt"; "compact"; "dyn"; "perm"; "journal"; "eval";
    "fo_enum"; "enum" ]

(** Layer owning a span. The benchmark's own spans use the layer name as
    their scope; in-program spans are mapped by the module that emits
    them: the compile phases that call into lib/logic and lib/graph are
    charged there, the engine scope is lib/engine/eval.ml, and the
    sampled per-answer spans of [Fo_enum] time [Enum.Iter] steps. *)
let layer_of ~scope ~name =
  match (scope, name) with
  | "compile", "normalize" -> "logic"
  | "compile", ("gaifman" | "orientation") -> "graph"
  | "engine", _ -> "eval"
  | "fo_enum", "answer" -> "enum"
  | "nested", _ -> "fo_enum"
  | s, _ -> s

let duration (s : T.span) = s.T.end_ns -. s.T.start_ns

(** Every span of a recording with its self time: its duration minus the
    part of its interval that its child spans cover. *)
let self_times (records : T.record list) : (T.span * float) list =
  let spans = List.filter_map (function T.RSpan s -> Some s | T.REvent _ -> None) records in
  let kids = Hashtbl.create 16 in
  List.iter (fun (s : T.span) -> Hashtbl.add kids s.T.parent s) spans;
  List.map
    (fun (s : T.span) ->
      let intervals =
        Hashtbl.find_all kids s.T.id
        |> List.map (fun (c : T.span) -> (Float.max c.T.start_ns s.T.start_ns, Float.min c.T.end_ns s.T.end_ns))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, hi) (a, b) ->
            let a = Float.max a hi in
            if b > a then (acc +. (b -. a), b) else (acc, hi))
          (0., Float.neg_infinity) intervals
      in
      (s, Float.max 0. (duration s -. covered)))
    spans

type t = {
  self_ns : (string, float ref) Hashtbl.t;  (** layer -> self time over the stream *)
  durs : (string, Stats.t) Hashtbl.t;  (** "scope/name" -> span durations (ns) *)
  mutable named_ns : float;  (** stream time covered by root spans *)
  mutable wall_ns : float;  (** traced stream wall time *)
}

let create () = { self_ns = Hashtbl.create 16; durs = Hashtbl.create 32; named_ns = 0.; wall_ns = 0. }

let samples t key =
  match Hashtbl.find_opt t.durs key with
  | Some s -> s
  | None ->
      let s = Stats.create () in
      Hashtbl.replace t.durs key s;
      s

(* compile-layer self time inside each full compile: the emit phase once
   normalize, Gaifman, colouring and the optimizer are taken out *)
let emit_times (selfs : (T.span * float) list) =
  let kids = Hashtbl.create 16 in
  List.iter (fun ((s : T.span), self) -> Hashtbl.add kids s.T.parent (s, self)) selfs;
  let rec compile_self ((s : T.span), self) =
    let own = if layer_of ~scope:s.T.scope ~name:s.T.name = "compile" then self else 0. in
    List.fold_left (fun acc c -> acc +. compile_self c) own (Hashtbl.find_all kids s.T.id)
  in
  List.filter_map
    (fun (((s : T.span), _) as node) ->
      if s.T.scope = "compile" && s.T.name = "compile" then Some (compile_self node) else None)
    selfs

(** Fold one recording into the ledger. [stream_wall_ns] is the wall
    time the recording covers when it belongs to the measured stream;
    set-up recordings pass [None] and feed only the duration samples. *)
let add ?stream_wall_ns t (records : T.record list) =
  let selfs = self_times records in
  let ids = Hashtbl.create 16 in
  List.iter (fun ((s : T.span), _) -> Hashtbl.replace ids s.T.id ()) selfs;
  List.iter
    (fun ((s : T.span), self) ->
      Stats.add (samples t (s.T.scope ^ "/" ^ s.T.name)) (duration s);
      match stream_wall_ns with
      | None -> ()
      | Some _ ->
          let layer = layer_of ~scope:s.T.scope ~name:s.T.name in
          (match Hashtbl.find_opt t.self_ns layer with
          | Some r -> r := !r +. self
          | None -> Hashtbl.replace t.self_ns layer (ref self));
          if not (Hashtbl.mem ids s.T.parent) then t.named_ns <- t.named_ns +. duration s)
    selfs;
  List.iter (fun e -> Stats.add (samples t "compile.emit") e) (emit_times selfs);
  match stream_wall_ns with Some w -> t.wall_ns <- t.wall_ns +. w | None -> ()

(** Median duration of the spans recorded under [key] ("scope/name"), in
    ms; 0 when none ran. *)
let median_ms t key =
  match Hashtbl.find_opt t.durs key with Some s -> Stats.median s /. 1e6 | None -> 0.

(** Share (percent) of the traced stream wall time spent in [layer]'s own
    code. *)
let self_pct t layer =
  if t.wall_ns <= 0. then 0.
  else
    match Hashtbl.find_opt t.self_ns layer with
    | Some r -> 100. *. !r /. t.wall_ns
    | None -> 0.

(** Share (percent) of the traced stream wall time inside any named span. *)
let named_pct t = if t.wall_ns <= 0. then 0. else 100. *. t.named_ns /. t.wall_ns
