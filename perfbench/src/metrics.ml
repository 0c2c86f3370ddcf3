(** The metric catalogue. BENCHMARK.json lists exactly these names; the
    self-test holds the two in step. *)

type direction = Lower | Higher

(** End-to-end metrics, printed by an untraced run ([--trace 0]) on every
    workload. Each workload maps its own requests onto the light and
    heavy classes (see README.md). *)
let end_to_end =
  [
    ("setup_s", "s", Lower);
    ("ops_per_s", "ops/s", Higher);
    ("light_p50_us", "us", Lower);
    ("light_p99_us", "us", Lower);
    ("heavy_p50_ms", "ms", Lower);
    ("heavy_p90_ms", "ms", Lower);
    ("peak_heap_mb", "MB", Lower);
  ]

(** Per-layer metrics, printed by a traced run ([--trace 1]); a layer a
    workload never calls reads 0. *)
let per_layer =
  [
    ("db.load_ms", "ms");
    ("logic.normalize_ms", "ms");
    ("graph.gaifman_ms", "ms");
    ("graph.coloring_ms", "ms");
    ("graph.colors", "count");
    ("compile.emit_ms", "ms");
    ("compile.raw_gates", "count");
    ("compile.subsets", "count");
    ("compile.shapes", "count");
    ("compile.recompile_local_ms", "ms");
    ("compile.gates_copied_per_op", "count");
    ("compile.fallback_frac", "ratio");
    ("opt.fold_ms", "ms");
    ("opt.cse_ms", "ms");
    ("opt.dce_ms", "ms");
    ("opt.balance_ms", "ms");
    ("opt.shrink_ratio", "ratio");
    ("compact.freeze_ms", "ms");
    ("compact.eval_ms", "ms");
    ("compact.load_ms", "ms");
    ("compact.save_ms", "ms");
    ("compact.bytes_per_gate", "bytes");
    ("compact.load_request_p50_ms", "ms");
    ("dyn.create_ms", "ms");
    ("dyn.touched_per_update", "count");
    ("dyn.touched_per_batch", "count");
    ("dyn.batch_dedup_ratio", "ratio");
    ("dyn.splice_ms", "ms");
    ("dyn.splice_carried_frac", "ratio");
    ("perm.segtree_sets_per_update", "count");
    ("perm.ring_sets_per_update", "count");
    ("perm.creates_per_struct_op", "count");
    ("journal.bytes_per_write", "bytes");
    ("journal.replay_ms", "ms");
    ("eval.query_p50_us", "us");
    ("eval.query_p90_us", "us");
    ("fo_enum.prepare_ms", "ms");
    ("fo_enum.gates", "count");
    ("fo_enum.first_answer_ms", "ms");
    ("enum.delay_p50_ns", "ns");
    ("enum.delay_p99_ns", "ns");
    ("enum.ticks_per_answer", "count");
    ("enum.answers_per_s", "1/s");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections_per_kop", "count");
    ("gc.top_heap_mb", "MB");
    ("host.probe_us", "us");
    ("obs.trace_overhead_pct", "%");
    ("ledger.named_pct", "%");
  ]
  @ List.map (fun l -> (l ^ ".self_pct", "%")) Ledger.layers

(** Per-layer figures read from the ledger: median durations of the
    spans each layer emits (in-program) or the benchmark opens around
    its calls. *)
let ledger_spans =
  [
    ("db.load_ms", "db/load");
    ("logic.normalize_ms", "compile/normalize");
    ("graph.gaifman_ms", "compile/gaifman");
    ("graph.coloring_ms", "compile/orientation");
    ("compile.emit_ms", "compile.emit");
    ("compile.recompile_local_ms", "compile/recompile_local");
    ("opt.fold_ms", "opt/fold");
    ("opt.cse_ms", "opt/cse");
    ("opt.dce_ms", "opt/dce");
    ("opt.balance_ms", "opt/balance");
    ("compact.freeze_ms", "compact/freeze");
    ("compact.eval_ms", "compact/eval");
    ("compact.load_ms", "compact/load");
    ("compact.save_ms", "compact/save");
    ("dyn.create_ms", "dyn/create");
    ("dyn.splice_ms", "dyn/splice");
    ("fo_enum.prepare_ms", "fo_enum/prepare");
  ]
