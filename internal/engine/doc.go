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
//   - btree.go, rtree.go, inverted.go — the index structures. BTree's one
//     read path is the allocation-free Visit visitor, which index lookups,
//     join probes and true selectivity all walk (the materializing Range
//     scan survives in btree_oracle_test.go as its differential-test
//     oracle).
//   - rowset.go — the pooled bitset Index.Lookup marks tree scans into and
//     sweeps out in row-id order (a bitmap index scan; tiny sets are sorted).
//   - query.go, predicate.go — the SQL-ish query model, per-predicate
//     evaluation, and boundPred: a predicate bound to its column's typed
//     storage once per execution for the scan and residual loops.
//   - optimizer.go, cost.go, stats.go — the deliberately-imperfect
//     cost-based optimizer, the virtual-time cost model, and ExecStats,
//     the work accounting everything else is priced in.
//   - executor.go — plain plan execution: a fresh execContext per run, one
//     Visit descent per join probe. Since serving counts rather than
//     executes, the executor is the reference the determinism contract
//     compares against, and it runs the harness's joins, LIMIT and sample
//     options.
//   - access.go — the one accounting of index access (intersection and
//     fetch phases) the executor charges through, and Counter, which prices
//     an exact single-table query's plans from its posting lists without
//     fetching a row.
//   - lookup_cache.go — LookupCache memoizes per-predicate index scans
//     across the executions of related plans (DB.RunCached); safe for
//     concurrent readers over the immutable dataset. NewLookupMemo layers
//     an unbounded per-build memo in front of a shared (possibly full)
//     cache; DB.ResolvePlan tells a caller which rewrites are the same
//     physical plan, so it can run each once.
//   - ingest.go, wal.go — the write path: DB.ApplyBatch, the adaptive
//     Ingestor in front of it, and the per-table write-ahead log. An
//     Ingestor has one flusher, so batches apply in the order they were
//     taken and a Flush returns only once every row added before it is
//     applied and logged.
//
// # Invariants
//
// ExecStats is bit-identical across every execution strategy of the same
// plan: bitset-ordered or sorted posting lists, bound or interpreted
// predicates, cached or uncached lookups — and counted rather than
// executed. The virtual clock — and therefore ground-truth labels, trained
// policies, and every serving-layer cache — prices ExecStats, so an
// optimization that changes the accounting changes answers. New fast paths
// must ship with a differential test against the slow path (see
// btree_visit_test.go, join_stats_test.go, and reference_test.go's
// whole-executor oracle) and an allocation ceiling in alloc_guard_test.go.
// All execution randomness derives from per-query and per-plan
// fingerprints, never from run order, which is what makes results
// reproducible under any parallelism (docs/ARCHITECTURE.md).
package engine
