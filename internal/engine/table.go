package engine

import (
	"fmt"
	"math/rand"
	"sync/atomic"
)

// IndexKind enumerates the index types the engine supports.
type IndexKind uint8

const (
	// IndexBTree is a B+-tree over a numeric or time column.
	IndexBTree IndexKind = iota
	// IndexRTree is an R-tree over a point column.
	IndexRTree
	// IndexInverted is an inverted index over a text column.
	IndexInverted
)

// String returns the index kind name as it appears in hints.
func (k IndexKind) String() string {
	switch k {
	case IndexBTree:
		return "btree"
	case IndexRTree:
		return "rtree"
	case IndexInverted:
		return "inverted"
	}
	return fmt.Sprintf("IndexKind(%d)", uint8(k))
}

// Index is a secondary index on one column of a table.
type Index struct {
	Col    string
	Kind   IndexKind
	btree  *BTree
	rtree  *RTree
	invidx *InvertedIndex
}

// Lookup returns the posting list of the rows matching p via the index and
// the number of index entries touched. Tree scans produce rows in key (btree)
// or tile (rtree) order; posting-list consumers (intersection) require row-id
// order, so both are ordered like a bitmap index scan — marked into a pooled
// rowSet straight from the tree walk and handed out as that bitset when it is
// the smaller encoding, swept out ascending otherwise, never
// comparison-sorted unless the set is tiny. The returned list is freshly
// allocated (btree, rtree) or shared-immutable (inverted), so it is stable
// enough to live in a LookupCache; executor paths that never cache a probe —
// join probes, true selectivity without a cache — use BTree.Visit instead
// and skip the materialization entirely.
func (ix *Index) Lookup(p Predicate) (rows Posting, entries int, err error) {
	switch ix.Kind {
	case IndexBTree:
		if p.Kind != PredRange {
			return Posting{}, 0, fmt.Errorf("engine: btree index on %s cannot serve %s predicate", ix.Col, p.Kind)
		}
		set := getRowSet(ix.btree.Len())
		entries = ix.btree.Visit(p.Lo, p.Hi, func(row uint32) bool { set.add(row); return true })
		return set.posting(), entries, nil
	case IndexRTree:
		if p.Kind != PredGeo {
			return Posting{}, 0, fmt.Errorf("engine: rtree index on %s cannot serve %s predicate", ix.Col, p.Kind)
		}
		rows, entries = ix.rtree.Search(p.Box)
		return rows, entries, nil
	case IndexInverted:
		if p.Kind != PredKeyword {
			return Posting{}, 0, fmt.Errorf("engine: inverted index on %s cannot serve %s predicate", ix.Col, p.Kind)
		}
		ids, n := ix.invidx.Lookup(p.Word)
		return arrayPosting(ids), n, nil
	}
	return Posting{}, 0, fmt.Errorf("engine: unknown index kind %d", ix.Kind)
}

// Table is an in-memory columnar table. ScaleFactor maps the stored row
// count to the "real" row count the virtual clock simulates: a table storing
// 200k rows with ScaleFactor 500 behaves, time-wise, like a 100M-row table.
type Table struct {
	Name        string
	Cols        []*Column
	byName      map[string]*Column
	Rows        int
	ScaleFactor float64
	Vocab       *Vocab

	Indexes map[string]*Index // by column name
	Samples map[int]*Table    // by percent (e.g. 20 → 20% sample)

	// SampleOf is the base table when this table is a sample, else nil.
	SampleOf *Table
	// SamplePercent is the sampling rate when SampleOf != nil.
	SamplePercent int

	// version is the table's monotonic data version, starting at 0 for the
	// freshly built table and bumped once per applied ingest flush (see
	// DB.ApplyBatch). Every cache keyed on this table's contents folds the
	// version into its key, so a bump atomically invalidates plan, result,
	// lookup, and peer caches without touching them.
	version atomic.Uint64
	// sampleSeeds remembers the seed each sample was built with so ingest
	// can extend samples deterministically (by percent).
	sampleSeeds map[int]int64
}

// DataVersion returns the table's current data version. Version 0 is the
// freshly built (pre-ingest) state.
func (t *Table) DataVersion() uint64 { return t.version.Load() }

// restoreVersion force-sets the data version, mirroring it onto every sample
// (ApplyBatch bumps base and samples in lockstep, so after N flushes they
// agree). WAL checkpoint recovery uses it: the checkpoint's compacted batch
// applies in one append without bumps, then this reinstates the version the
// compaction collapsed. Callers hold the owning DB's data write lock.
func (t *Table) restoreVersion(v uint64) {
	t.version.Store(v)
	for _, s := range t.Samples {
		s.version.Store(v)
	}
}

// NewTable creates an empty table. ScaleFactor must be ≥ 1.
func NewTable(name string, scaleFactor float64) *Table {
	if scaleFactor < 1 {
		scaleFactor = 1
	}
	return &Table{
		Name:        name,
		byName:      make(map[string]*Column),
		ScaleFactor: scaleFactor,
		Vocab:       NewVocab(),
		Indexes:     make(map[string]*Index),
		Samples:     make(map[int]*Table),
		sampleSeeds: make(map[int]int64),
	}
}

// AddColumn attaches a fully-populated column. All columns must have the
// same length; the first column fixes the row count.
func (t *Table) AddColumn(c *Column) error {
	if _, dup := t.byName[c.Name]; dup {
		return fmt.Errorf("engine: duplicate column %q in table %q", c.Name, t.Name)
	}
	if len(t.Cols) == 0 {
		t.Rows = c.Len()
	} else if c.Len() != t.Rows {
		return fmt.Errorf("engine: column %q has %d rows, table %q has %d",
			c.Name, c.Len(), t.Name, t.Rows)
	}
	t.Cols = append(t.Cols, c)
	t.byName[c.Name] = c
	return nil
}

// Col returns the named column, panicking if absent (schema errors are
// programming errors in this engine).
func (t *Table) Col(name string) *Column {
	c, ok := t.byName[name]
	if !ok {
		panic(fmt.Sprintf("engine: no column %q in table %q", name, t.Name))
	}
	return c
}

// HasColumn reports whether the table has a column with the given name.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.byName[name]
	return ok
}

// RealRows returns the simulated ("paper-scale") row count.
func (t *Table) RealRows() float64 { return float64(t.Rows) * t.ScaleFactor }

// BuildIndex creates an index of the given kind on col.
func (t *Table) BuildIndex(col string, kind IndexKind) (*Index, error) {
	c, ok := t.byName[col]
	if !ok {
		return nil, fmt.Errorf("engine: no column %q in table %q", col, t.Name)
	}
	ix := &Index{Col: col, Kind: kind}
	switch kind {
	case IndexBTree:
		if c.Type != ColInt64 && c.Type != ColFloat64 && c.Type != ColTime {
			return nil, fmt.Errorf("engine: btree index needs numeric/time column, %q is %v", col, c.Type)
		}
		keys := make([]float64, t.Rows)
		rows := make([]uint32, t.Rows)
		for i := 0; i < t.Rows; i++ {
			keys[i] = c.NumericAt(uint32(i))
			rows[i] = uint32(i)
		}
		ix.btree = NewBTree(keys, rows)
	case IndexRTree:
		if c.Type != ColPoint {
			return nil, fmt.Errorf("engine: rtree index needs point column, %q is %v", col, c.Type)
		}
		rows := make([]uint32, t.Rows)
		for i := range rows {
			rows[i] = uint32(i)
		}
		ix.rtree = NewRTree(c.Points, rows)
	case IndexInverted:
		if c.Type != ColText {
			return nil, fmt.Errorf("engine: inverted index needs text column, %q is %v", col, c.Type)
		}
		ix.invidx = NewInvertedIndex(c.Texts)
	default:
		return nil, fmt.Errorf("engine: unknown index kind %d", kind)
	}
	t.Indexes[col] = ix
	return ix, nil
}

// Index returns the index on col, or nil.
func (t *Table) Index(col string) *Index { return t.Indexes[col] }

// BuildSample creates (or returns) a random sample table at the given
// percent, with the same schema and indexes as the base table. The sample's
// ScaleFactor keeps virtual time consistent: scanning the full sample costs
// percent% of scanning the base table.
func (t *Table) BuildSample(percent int, seed int64) (*Table, error) {
	if percent <= 0 || percent >= 100 {
		return nil, fmt.Errorf("engine: sample percent must be in (0,100), got %d", percent)
	}
	if s, ok := t.Samples[percent]; ok {
		return s, nil
	}
	rng := rand.New(rand.NewSource(seed ^ int64(percent)*0x9E3779B9))
	keep := make([]uint32, 0, t.Rows*percent/100+1)
	for i := 0; i < t.Rows; i++ {
		if rng.Float64()*100 < float64(percent) {
			keep = append(keep, uint32(i))
		}
	}
	s := NewTable(fmt.Sprintf("%s_sample%d", t.Name, percent), t.ScaleFactor)
	s.Vocab = t.Vocab
	s.SampleOf = t
	s.SamplePercent = percent
	for _, c := range t.Cols {
		nc := &Column{Name: c.Name, Type: c.Type}
		switch c.Type {
		case ColInt64, ColTime:
			nc.Ints = make([]int64, len(keep))
			for j, r := range keep {
				nc.Ints[j] = c.Ints[r]
			}
		case ColFloat64:
			nc.Floats = make([]float64, len(keep))
			for j, r := range keep {
				nc.Floats[j] = c.Floats[r]
			}
		case ColPoint:
			nc.Points = make([]Point, len(keep))
			for j, r := range keep {
				nc.Points[j] = c.Points[r]
			}
		case ColText:
			nc.Texts = make([][]uint32, len(keep))
			for j, r := range keep {
				nc.Texts[j] = c.Texts[r]
			}
		}
		if err := s.AddColumn(nc); err != nil {
			return nil, err
		}
	}
	// Record the base row id of each sample row so results can be compared
	// against the base table for quality metrics.
	base := &Column{Name: "__base_row", Type: ColInt64, Ints: make([]int64, len(keep))}
	for j, r := range keep {
		base.Ints[j] = int64(r)
	}
	if err := s.AddColumn(base); err != nil {
		return nil, err
	}
	// Mirror the base table's indexes.
	for col, ix := range t.Indexes {
		if _, err := s.BuildIndex(col, ix.Kind); err != nil {
			return nil, err
		}
	}
	t.Samples[percent] = s
	t.sampleSeeds[percent] = seed
	return s, nil
}

// BaseRowIDs translates sample-table row ids back to base-table row ids.
// For non-sample tables it returns rows unchanged.
func (t *Table) BaseRowIDs(rows []uint32) []uint32 {
	if t.SampleOf == nil {
		return rows
	}
	c := t.Col("__base_row")
	out := make([]uint32, len(rows))
	for i, r := range rows {
		out[i] = uint32(c.Ints[r])
	}
	return out
}

// DistinctWordsExact counts the distinct words among the given rows of the
// table's text column.
func DistinctWordsExact(t *Table, rows []uint32, textCol string) int {
	c := t.Col(textCol)
	seen := make(map[uint32]struct{})
	for _, r := range rows {
		for _, w := range c.Texts[r] {
			seen[w] = struct{}{}
		}
	}
	return len(seen)
}
