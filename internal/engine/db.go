package engine

import (
	"fmt"
	"slices"
	"sync"
)

// DB is the engine façade: a set of tables plus an execution profile. Once
// loading (AddTable, BuildIndex, BuildSample) is done, the DB is safe for
// concurrent readers: Run, ChoosePlan, EstimatePlanSels and
// TrueSelectivitiesCached only read table data, and the lazily-built
// statistics cache below is the single mutable structure, guarded by a
// read-mostly lock.
type DB struct {
	Tables  map[string]*Table
	Profile Profile
	// Seed drives the deterministic execution-noise stream.
	Seed int64

	mu    sync.RWMutex
	stats map[string]*TableStats
	// wals maps base-table names to their attached write-ahead logs (see
	// AttachWAL); ApplyBatch appends to a table's log before mutating it.
	wals map[string]*WAL

	// dataMu orders readers against ingest flushes: the serving layer holds
	// the read side across one plan+execute sequence (see RLockData), and
	// ApplyBatch holds the write side while mutating table data, indexes,
	// samples, and versions. Run itself stays lock-free — callers that never
	// ingest (the offline pipelines) pay nothing.
	dataMu sync.RWMutex

	// flushMu guards onFlush; hooks are registered by serving layers (e.g.
	// per-server lookup-cache invalidation) and fired after every flush.
	flushMu sync.Mutex
	onFlush []*flushHook
}

// flushHook boxes one registered hook so its remove func can find it by
// identity (funcs are not comparable).
type flushHook struct {
	fn func(table string, version uint64)
}

// NewDB creates an empty database with the given profile.
func NewDB(p Profile, seed int64) *DB {
	return &DB{
		Tables:  make(map[string]*Table),
		Profile: p,
		Seed:    seed,
		stats:   make(map[string]*TableStats),
	}
}

// AddTable registers a table.
func (db *DB) AddTable(t *Table) error {
	if _, dup := db.Tables[t.Name]; dup {
		return fmt.Errorf("engine: duplicate table %q", t.Name)
	}
	db.Tables[t.Name] = t
	return nil
}

// table returns the named table, panicking on schema errors.
func (db *DB) table(name string) *Table {
	t, ok := db.Tables[name]
	if !ok {
		panic(fmt.Sprintf("engine: unknown table %q", name))
	}
	return t
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table { return db.Tables[name] }

// statsFor lazily builds and caches optimizer statistics for a table. The
// fast path is a read lock so concurrent executions don't serialize on the
// cache once it is warm.
func (db *DB) statsFor(name string) *TableStats {
	db.mu.RLock()
	st, ok := db.stats[name]
	db.mu.RUnlock()
	if ok {
		return st
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if st, ok := db.stats[name]; ok {
		return st
	}
	st = BuildTableStats(db.table(name))
	db.stats[name] = st
	return st
}

// Stats exposes the optimizer statistics for a table (read-only use).
func (db *DB) Stats(name string) *TableStats { return db.statsFor(name) }

// InvalidateStats drops cached statistics (after data changes).
func (db *DB) InvalidateStats(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.stats, name)
}

// RLockData takes the data read lock. A serving layer wraps each
// plan+execute sequence in RLockData/RUnlockData so it observes one
// consistent (data, version) pair; ingest flushes exclude all readers for
// the duration of ApplyBatch. The lock is shared and re-entrant-free: never
// call ApplyBatch while holding it.
func (db *DB) RLockData() { db.dataMu.RLock() }

// RUnlockData releases the data read lock.
func (db *DB) RUnlockData() { db.dataMu.RUnlock() }

// DataVersion returns the named table's current data version (0 = as
// built). Read it under RLockData to pair it consistently with the data.
func (db *DB) DataVersion(name string) uint64 { return db.table(name).DataVersion() }

// OnFlush registers a hook fired (outside all locks) after every applied
// ingest flush, with the base table's name and new data version. Serving
// layers use it to reclaim version-keyed cache memory; correctness never
// depends on it, because every cache key carries the version. The returned
// func unregisters the hook (idempotent); a serving layer calls it on close,
// or the DB keeps the hook — and everything it captures — alive.
func (db *DB) OnFlush(fn func(table string, version uint64)) (remove func()) {
	h := &flushHook{fn: fn}
	db.flushMu.Lock()
	defer db.flushMu.Unlock()
	db.onFlush = append(db.onFlush, h)
	return func() {
		db.flushMu.Lock()
		defer db.flushMu.Unlock()
		if i := slices.Index(db.onFlush, h); i >= 0 {
			db.onFlush = slices.Delete(db.onFlush, i, i+1)
		}
	}
}

// fireFlushHooks snapshots and runs the registered flush hooks.
func (db *DB) fireFlushHooks(table string, version uint64) {
	db.flushMu.Lock()
	hooks := slices.Clone(db.onFlush)
	db.flushMu.Unlock()
	for _, h := range hooks {
		h.fn(table, version)
	}
}

// TrueSelectivitiesCached computes exact selectivities for all main-table
// predicates of q (ground truth for QTEs and workload construction), with
// the index scans routed through an optional lookup cache, so ground-truth
// collection shares scans with the option executions of the same query. A
// nil cache disables memoization.
func (db *DB) TrueSelectivitiesCached(q *Query, c *LookupCache) []float64 {
	t := db.table(q.Table)
	out := make([]float64, len(q.Preds))
	for i, p := range q.Preds {
		out[i] = trueSelectivityCached(t, p, c)
	}
	return out
}
