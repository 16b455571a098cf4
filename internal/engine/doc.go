// Package engine implements the database substrate used by Maliva: an
// in-memory columnar store with B+-tree, R-tree and inverted indexes, a
// cost-based optimizer with realistic estimation errors, query hints,
// sample tables, and a deterministic virtual-time cost model.
//
// The engine executes queries for real on (scaled-down) data, while the
// reported execution time is a deterministic function of the work
// performed, converted to paper-scale milliseconds. See DESIGN.md §3.
//
// # Layout
//
//   - table.go, types.go, vocab.go — the columnar store: typed columns,
//     tokenized text, immutable once loaded.
//   - btree.go, rtree.go, inverted.go — the index structures. BTree offers
//     three read paths with identical entries accounting: materializing
//     Range (the differential-test oracle), the allocation-free Visit
//     visitor, and the resumable Cursor the join paths pool.
//   - query.go, predicate.go — the SQL-ish query model and per-predicate
//     evaluation.
//   - optimizer.go, cost.go, stats.go — the deliberately-imperfect
//     cost-based optimizer, the virtual-time cost model, and ExecStats,
//     the work accounting everything else is priced in.
//   - executor.go — plan execution over a pooled execContext with reusable
//     scratch buffers (the zero-allocation hot path).
//   - lookup_cache.go — LookupCache memoizes per-predicate index scans
//     across the executions of related plans (DB.RunCached); safe for
//     concurrent readers over the immutable dataset.
//
// # Invariants
//
// ExecStats is bit-identical across every execution strategy of the same
// plan: pooled or fresh contexts, Range or Visit or Cursor scans, cached or
// uncached lookups. The virtual clock — and therefore ground-truth labels,
// trained policies, and every serving-layer cache — prices ExecStats, so
// an optimization that changes the accounting changes answers. New fast
// paths must ship with a differential test against the slow path (see
// btree_visit_test.go, join_stats_test.go) and an allocation ceiling in
// alloc_guard_test.go. All execution randomness derives from per-query and
// per-plan fingerprints, never from run order, which is what makes results
// reproducible under any parallelism (docs/ARCHITECTURE.md).
package engine
