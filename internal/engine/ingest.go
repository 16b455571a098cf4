package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the engine's write path: columnar append batches, incremental
// index maintenance, and an adaptive batcher that turns a stream of small
// appends into few large flushes. A flush is the unit of visibility — it
// applies atomically under the DB's data write lock, bumps the table's data
// version, drops stale optimizer statistics, and rebuilds them, so every
// reader either sees the full pre-flush or the full post-flush state and can
// tell the two apart by version.

// Batch is a columnar append fragment: one fragment column per table column,
// all the same length. Batches are built row-set-at-a-time by callers (e.g.
// the workload layer's JSON row conversion) and applied via DB.ApplyBatch.
type Batch struct {
	cols   []*Column
	byName map[string]*Column
	rows   int
}

// NewBatch returns an empty batch.
func NewBatch() *Batch {
	return &Batch{byName: make(map[string]*Column)}
}

// AddColumn attaches a fragment column. All fragments must have the same
// length; the first fixes the batch's row count.
func (b *Batch) AddColumn(c *Column) error {
	if _, dup := b.byName[c.Name]; dup {
		return fmt.Errorf("engine: duplicate batch column %q", c.Name)
	}
	if len(b.cols) == 0 {
		b.rows = c.Len()
	} else if c.Len() != b.rows {
		return fmt.Errorf("engine: batch column %q has %d rows, batch has %d", c.Name, c.Len(), b.rows)
	}
	b.cols = append(b.cols, c)
	b.byName[c.Name] = c
	return nil
}

// Rows returns the number of rows in the batch.
func (b *Batch) Rows() int { return b.rows }

// Col returns the named fragment column, or nil.
func (b *Batch) Col(name string) *Column { return b.byName[name] }

// merge appends other's rows onto b. Both batches must have identical
// column sets (enforced by validateBatch before batches reach a merge).
func (b *Batch) merge(other *Batch) error {
	if len(b.cols) == 0 {
		b.cols = other.cols
		b.byName = other.byName
		b.rows = other.rows
		return nil
	}
	if len(other.cols) != len(b.cols) {
		return fmt.Errorf("engine: merging batches with %d vs %d columns", len(other.cols), len(b.cols))
	}
	for _, c := range b.cols {
		oc := other.byName[c.Name]
		if oc == nil || oc.Type != c.Type {
			return fmt.Errorf("engine: merging batches with mismatched column %q", c.Name)
		}
		appendColumnValues(c, oc)
	}
	b.rows += other.rows
	return nil
}

// appendColumnValues appends every value of src onto dst (types must match).
func appendColumnValues(dst, src *Column) {
	switch dst.Type {
	case ColInt64, ColTime:
		dst.Ints = append(dst.Ints, src.Ints...)
	case ColFloat64:
		dst.Floats = append(dst.Floats, src.Floats...)
	case ColPoint:
		dst.Points = append(dst.Points, src.Points...)
	case ColText:
		dst.Texts = append(dst.Texts, src.Texts...)
	}
}

// validateBatch checks that b covers exactly t's schema. The schema is fixed
// at build time (ingest appends rows, never columns), so validation needs no
// lock and lets async flushes assume structural success.
func (t *Table) validateBatch(b *Batch) error {
	if b == nil || b.Rows() == 0 {
		return fmt.Errorf("engine: empty batch for table %q", t.Name)
	}
	if len(b.cols) != len(t.Cols) {
		return fmt.Errorf("engine: batch has %d columns, table %q has %d", len(b.cols), t.Name, len(t.Cols))
	}
	for _, c := range t.Cols {
		bc := b.byName[c.Name]
		if bc == nil {
			return fmt.Errorf("engine: batch missing column %q of table %q", c.Name, t.Name)
		}
		if bc.Type != c.Type {
			return fmt.Errorf("engine: batch column %q is %v, table %q wants %v", c.Name, bc.Type, t.Name, c.Type)
		}
	}
	return nil
}

// appendBatch appends b's rows to the table, incrementally maintaining every
// index and extending every existing sample deterministically. Callers must
// hold the owning DB's data write lock; use DB.ApplyBatch.
func (t *Table) appendBatch(b *Batch) error {
	if err := t.validateBatch(b); err != nil {
		return err
	}
	start := t.Rows
	for _, c := range t.Cols {
		appendColumnValues(c, b.byName[c.Name])
	}
	t.Rows += b.rows
	t.maintainIndexes(start, b.rows)
	// Extend samples: membership of appended rows is a pure hash of
	// (sample seed, percent, base row id), so replaying the same appends on a
	// freshly built dataset reproduces identical samples — the property the
	// byte-identity-under-ingest tests rely on.
	for percent, s := range t.Samples {
		seed := t.sampleSeeds[percent]
		var keep []uint32
		for i := 0; i < b.rows; i++ {
			r := uint32(start + i)
			if sampleKeep(seed, percent, int(r)) {
				keep = append(keep, r)
			}
		}
		if len(keep) == 0 {
			continue
		}
		sstart := s.Rows
		for _, c := range s.Cols {
			if c.Name == "__base_row" {
				for _, r := range keep {
					c.Ints = append(c.Ints, int64(r))
				}
				continue
			}
			base := t.Col(c.Name)
			switch c.Type {
			case ColInt64, ColTime:
				for _, r := range keep {
					c.Ints = append(c.Ints, base.Ints[r])
				}
			case ColFloat64:
				for _, r := range keep {
					c.Floats = append(c.Floats, base.Floats[r])
				}
			case ColPoint:
				for _, r := range keep {
					c.Points = append(c.Points, base.Points[r])
				}
			case ColText:
				for _, r := range keep {
					c.Texts = append(c.Texts, base.Texts[r])
				}
			}
		}
		s.Rows += len(keep)
		s.maintainIndexes(sstart, len(keep))
	}
	return nil
}

// maintainIndexes inserts rows [start, start+n) into every index of t.
func (t *Table) maintainIndexes(start, n int) {
	for col, ix := range t.Indexes {
		c := t.Col(col)
		for i := start; i < start+n; i++ {
			row := uint32(i)
			switch ix.Kind {
			case IndexBTree:
				ix.btree.Insert(c.NumericAt(row), row)
			case IndexRTree:
				ix.rtree.Insert(c.Points[row], row)
			case IndexInverted:
				ix.invidx.AppendRow(row, c.Texts[row])
			}
		}
	}
}

// sampleKeep decides whether an appended base row joins the percent-sample
// built with seed. It intentionally differs from BuildSample's sequential
// rng draw: a stateless per-row hash keeps the decision independent of flush
// boundaries, so any batching of the same row stream yields the same sample.
func sampleKeep(seed int64, percent, row int) bool {
	x := uint64(seed) ^ uint64(row)*0x9E3779B97F4A7C15 ^ uint64(percent)<<32
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x%10000 < uint64(percent)*100
}

// ApplyBatch applies one append batch to the named base table: it takes the
// data write lock, logs the batch to the table's write-ahead log (when one is
// attached) so the flush is durable before it is visible, appends rows,
// maintains indexes and samples, bumps the table's (and its samples') data
// version with flush time at, and drops the now-stale optimizer statistics —
// then, outside the write lock, eagerly rebuilds statistics, checkpoints the
// WAL if it has grown past its bound, and fires the registered flush hooks.
// It returns the new data version.
func (db *DB) ApplyBatch(name string, b *Batch, at time.Time) (uint64, error) {
	return db.applyBatch(name, b, at, true)
}

// applyBatch is ApplyBatch with the WAL append switchable: startup replay
// applies recovered records through the same path but must not re-log them.
func (db *DB) applyBatch(name string, b *Batch, at time.Time, logIt bool) (uint64, error) {
	t := db.Table(name)
	if t == nil {
		return 0, fmt.Errorf("engine: ApplyBatch: unknown table %q", name)
	}
	if t.SampleOf != nil {
		return 0, fmt.Errorf("engine: ApplyBatch: %q is a sample table; ingest into its base", name)
	}
	wal := db.wal(name)
	db.dataMu.Lock()
	if wal != nil && logIt {
		// Validate first so a record is only logged for a batch that will
		// apply, then write-ahead: the record (and, under FsyncAlways, its
		// fsync) precedes the mutation, so an acknowledged flush can always
		// be replayed.
		if err := t.validateBatch(b); err != nil {
			db.dataMu.Unlock()
			return 0, err
		}
		if err := wal.append(t.DataVersion()+1, at, b, t.Vocab); err != nil {
			db.dataMu.Unlock()
			return 0, fmt.Errorf("engine: wal append for %q: %w", name, err)
		}
	}
	if err := t.appendBatch(b); err != nil {
		db.dataMu.Unlock()
		return 0, err
	}
	v := t.bumpVersion(at)
	for _, s := range t.Samples {
		s.bumpVersion(at)
	}
	db.mu.Lock()
	delete(db.stats, name)
	for _, s := range t.Samples {
		delete(db.stats, s.Name)
	}
	db.mu.Unlock()
	db.dataMu.Unlock()
	// Post-flush stats refresh: rebuild eagerly under the read lock so the
	// first post-flush query doesn't pay the build, and so a concurrent next
	// flush can't race the scan. Samples are only refreshable when registered
	// as DB tables (the workload layer registers them; bare engine callers
	// may not — their stats then rebuild lazily on first use).
	db.RLockData()
	db.Stats(name)
	for _, s := range t.Samples {
		if db.Table(s.Name) != nil {
			db.Stats(s.Name)
		}
	}
	if wal != nil && logIt {
		// Checkpoint under the read lock: writers are excluded, so the table
		// state serialized is exactly the state the newest record produced. A
		// checkpoint failure loses no data — the segments it would have
		// superseded stay on disk — so it must not fail the flush.
		if err := wal.maybeCheckpoint(t); err != nil {
			wal.noteCheckpointErr(err)
		}
	}
	db.RUnlockData()
	db.fireFlushHooks(name, v)
	return v, nil
}

// FlushStats describes one applied ingest flush.
type FlushStats struct {
	Table   string
	Version uint64
	Rows    int
	Took    time.Duration
}

// IngestorConfig tunes an Ingestor's adaptive flush policy.
type IngestorConfig struct {
	// MaxBatch is the size trigger: a pending buffer reaching this many rows
	// flushes immediately. <= 0 picks DefaultIngestMaxBatch.
	MaxBatch int
	// MinDelay floors the adaptive latency trigger. <= 0 picks
	// DefaultIngestMinDelay.
	MinDelay time.Duration
	// MaxDelay caps the latency trigger: no accepted row waits longer than
	// this for visibility. <= 0 picks DefaultIngestMaxDelay.
	MaxDelay time.Duration
	// Now is the clock (tests inject a fake); nil means time.Now.
	Now func() time.Time
}

// Default adaptive-flush tuning.
const (
	DefaultIngestMaxBatch = 512
	DefaultIngestMinDelay = 2 * time.Millisecond
	DefaultIngestMaxDelay = 200 * time.Millisecond
)

// Ingestor batches appends to one table with adaptive flushing: a flush
// fires when the pending buffer reaches MaxBatch rows (size trigger) or when
// a delay adapted to the observed append rate elapses (latency trigger).
// Sparse streams flush almost immediately — the delay tracks a multiple of
// the EWMA inter-append gap, floored at MinDelay — while dense streams let
// the size trigger dominate and only fall back to the MaxDelay ceiling,
// which bounds worst-case staleness. An Ingestor is safe for concurrent use.
type Ingestor struct {
	db    *DB
	table string
	cfg   IngestorConfig

	mu      sync.Mutex
	pending *Batch
	timer   *time.Timer
	lastAdd time.Time
	ewmaGap time.Duration
	closed  bool
	// inFlight counts flushes that have taken a pending buffer and not yet
	// applied it; Close waits for them.
	inFlight sync.WaitGroup

	onFlush atomic.Pointer[func(FlushStats)]

	rowsIn  atomic.Int64
	flushes atomic.Int64
}

// NewIngestor returns an ingestor for the named base table.
func NewIngestor(db *DB, table string, cfg IngestorConfig) (*Ingestor, error) {
	t := db.Table(table)
	if t == nil {
		return nil, fmt.Errorf("engine: NewIngestor: unknown table %q", table)
	}
	if t.SampleOf != nil {
		return nil, fmt.Errorf("engine: NewIngestor: %q is a sample table", table)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultIngestMaxBatch
	}
	if cfg.MinDelay <= 0 {
		cfg.MinDelay = DefaultIngestMinDelay
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = DefaultIngestMaxDelay
	}
	if cfg.MaxDelay < cfg.MinDelay {
		cfg.MaxDelay = cfg.MinDelay
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Ingestor{db: db, table: table, cfg: cfg}, nil
}

// SetOnFlush registers a callback fired after each applied flush (at most
// one; later calls replace earlier ones). It runs outside the ingestor's
// lock, after the DB's own flush hooks.
func (in *Ingestor) SetOnFlush(fn func(FlushStats)) { in.onFlush.Store(&fn) }

// Version returns the table's current data version.
func (in *Ingestor) Version() uint64 { return in.db.DataVersion(in.table) }

// Pending returns the buffered, not-yet-flushed row count.
func (in *Ingestor) Pending() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.pending == nil {
		return 0
	}
	return in.pending.Rows()
}

// Totals returns lifetime accepted rows and applied flushes.
func (in *Ingestor) Totals() (rows, flushes int64) {
	return in.rowsIn.Load(), in.flushes.Load()
}

// Add buffers one batch, flushing synchronously when the size trigger fires
// and arming the adaptive latency timer otherwise. flushed reports whether
// this call applied a flush.
func (in *Ingestor) Add(b *Batch) (flushed bool, err error) {
	t := in.db.Table(in.table)
	if err := t.validateBatch(b); err != nil {
		return false, err
	}
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return false, fmt.Errorf("engine: ingestor for %q is closed", in.table)
	}
	now := in.cfg.Now()
	if !in.lastAdd.IsZero() {
		gap := now.Sub(in.lastAdd)
		if gap < 0 {
			gap = 0
		}
		if in.ewmaGap == 0 {
			in.ewmaGap = gap
		} else {
			// EWMA with alpha 1/4, integer-friendly.
			in.ewmaGap += (gap - in.ewmaGap) / 4
		}
	}
	in.lastAdd = now
	if in.pending == nil {
		in.pending = NewBatch()
	}
	if err := in.pending.merge(b); err != nil {
		in.mu.Unlock()
		return false, err
	}
	in.rowsIn.Add(int64(b.Rows()))
	if in.pending.Rows() >= in.cfg.MaxBatch {
		in.mu.Unlock()
		_, err := in.Flush()
		return true, err
	}
	if in.timer == nil {
		// Arm once per pending generation — a steady stream must not keep
		// postponing the deadline.
		in.timer = time.AfterFunc(in.delay(), func() { _, _ = in.Flush() })
	}
	in.mu.Unlock()
	return false, nil
}

// delay computes the adaptive latency-trigger delay from the current EWMA
// inter-append gap. Callers hold in.mu.
func (in *Ingestor) delay() time.Duration {
	d := 8 * in.ewmaGap
	if d < in.cfg.MinDelay {
		d = in.cfg.MinDelay
	}
	if d > in.cfg.MaxDelay {
		d = in.cfg.MaxDelay
	}
	return d
}

// Flush applies the pending buffer now (a no-op returning the current
// version when nothing is pending) and returns the resulting data version.
func (in *Ingestor) Flush() (uint64, error) {
	in.mu.Lock()
	b := in.pending
	in.pending = nil
	if in.timer != nil {
		in.timer.Stop()
		in.timer = nil
	}
	apply := b != nil && b.Rows() > 0
	if apply {
		in.inFlight.Add(1)
	}
	in.mu.Unlock()
	if !apply {
		return in.Version(), nil
	}
	defer in.inFlight.Done()
	start := in.cfg.Now()
	v, err := in.db.ApplyBatch(in.table, b, start)
	if err != nil {
		return 0, err
	}
	took := in.cfg.Now().Sub(start)
	in.flushes.Add(1)
	if fn := in.onFlush.Load(); fn != nil && *fn != nil {
		(*fn)(FlushStats{Table: in.table, Version: v, Rows: b.Rows(), Took: took})
	}
	return v, nil
}

// Close flushes any pending rows and rejects further Adds. It returns once
// every flush already under way has applied, so closing the table's WAL next
// cannot cut off an accepted batch.
func (in *Ingestor) Close() error {
	in.mu.Lock()
	in.closed = true
	in.mu.Unlock()
	_, err := in.Flush()
	in.inFlight.Wait()
	return err
}
