package workload

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/maliva/maliva/internal/engine"
)

// This file is the workload side of the live-ingestion write path: the JSON
// row → columnar batch conversion the /ingest endpoint uses, and a
// deterministic row-stream generator for write benchmarks and the
// reads-during-ingest drills.

// RowsToBatch converts JSON-wire rows (column name → value) into a columnar
// append batch for the dataset's main table. Wire forms per column type:
//
//	int64/float64  — JSON number
//	time           — RFC 3339 string, or a number of unix milliseconds
//	point          — [lon, lat] array (or {"lon":..,"lat":..} object)
//	text           — whitespace-separated words in one string; new words are
//	                 interned into the table's vocabulary
//
// Every row must provide every column of the main table. Words are interned
// only once every cell has converted, so a rejected batch leaves the
// vocabulary as it found it.
func RowsToBatch(ds *Dataset, rows []map[string]any) (*engine.Batch, error) {
	t := ds.DB.Table(ds.Main)
	if t == nil {
		return nil, fmt.Errorf("workload: dataset %q has no table %q", ds.Name, ds.Main)
	}
	cols := make([]*engine.Column, len(t.Cols))
	words := make([][][]string, len(t.Cols)) // text cells' words, per column
	for j, tc := range t.Cols {
		c := &engine.Column{Name: tc.Name, Type: tc.Type}
		cols[j] = c
		for i, row := range rows {
			v, ok := row[tc.Name]
			if !ok {
				return nil, fmt.Errorf("workload: row %d is missing column %q", i, tc.Name)
			}
			switch tc.Type {
			case engine.ColInt64:
				f, err := toFloat(v)
				if err != nil {
					return nil, fmt.Errorf("workload: row %d column %q: %v", i, tc.Name, err)
				}
				c.Ints = append(c.Ints, int64(f))
			case engine.ColFloat64:
				f, err := toFloat(v)
				if err != nil {
					return nil, fmt.Errorf("workload: row %d column %q: %v", i, tc.Name, err)
				}
				c.Floats = append(c.Floats, f)
			case engine.ColTime:
				ms, err := toTimeMs(v)
				if err != nil {
					return nil, fmt.Errorf("workload: row %d column %q: %v", i, tc.Name, err)
				}
				c.Ints = append(c.Ints, ms)
			case engine.ColPoint:
				p, err := toPoint(v)
				if err != nil {
					return nil, fmt.Errorf("workload: row %d column %q: %v", i, tc.Name, err)
				}
				c.Points = append(c.Points, p)
			case engine.ColText:
				s, ok := v.(string)
				if !ok {
					return nil, fmt.Errorf("workload: row %d column %q: want a string of words", i, tc.Name)
				}
				words[j] = append(words[j], splitWords(s))
			}
		}
	}
	b := engine.NewBatch()
	for j, c := range cols {
		for _, ws := range words[j] {
			var toks []uint32
			for _, w := range ws {
				toks = append(toks, t.Vocab.Intern(w))
			}
			c.Texts = append(c.Texts, engine.SortTokens(toks))
		}
		if err := b.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// toFloat accepts the numeric forms JSON decoding and in-process callers
// produce.
func toFloat(v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case float32:
		return float64(x), nil
	case int:
		return float64(x), nil
	case int64:
		return float64(x), nil
	case uint64:
		return float64(x), nil
	}
	return 0, fmt.Errorf("want a number, got %T", v)
}

// toTimeMs accepts RFC 3339 strings or unix-millisecond numbers.
func toTimeMs(v any) (int64, error) {
	if s, ok := v.(string); ok {
		t, err := time.Parse(time.RFC3339, s)
		if err != nil {
			return 0, err
		}
		return t.UnixMilli(), nil
	}
	f, err := toFloat(v)
	if err != nil {
		return 0, fmt.Errorf("want RFC 3339 string or unix ms, got %T", v)
	}
	return int64(f), nil
}

// toPoint accepts [lon, lat] arrays or {"lon","lat"} objects.
func toPoint(v any) (engine.Point, error) {
	switch x := v.(type) {
	case []any:
		if len(x) != 2 {
			return engine.Point{}, fmt.Errorf("want [lon, lat], got %d elements", len(x))
		}
		lon, err1 := toFloat(x[0])
		lat, err2 := toFloat(x[1])
		if err1 != nil || err2 != nil {
			return engine.Point{}, fmt.Errorf("want numeric [lon, lat]")
		}
		return engine.Point{Lon: lon, Lat: lat}, nil
	case []float64:
		if len(x) != 2 {
			return engine.Point{}, fmt.Errorf("want [lon, lat], got %d elements", len(x))
		}
		return engine.Point{Lon: x[0], Lat: x[1]}, nil
	case map[string]any:
		lon, err1 := toFloat(x["lon"])
		lat, err2 := toFloat(x["lat"])
		if err1 != nil || err2 != nil {
			return engine.Point{}, fmt.Errorf("want {lon, lat} numbers")
		}
		return engine.Point{Lon: lon, Lat: lat}, nil
	}
	return engine.Point{}, fmt.Errorf("want [lon, lat], got %T", v)
}

// splitWords splits on whitespace without pulling in strings.Fields'
// unicode tables for the hot generator path.
func splitWords(s string) []string {
	var out []string
	start := -1
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' || s[i] == '\n' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}

// IngestStream deterministically generates wire-form rows matching a
// dataset's main-table schema, for write benchmarks and the
// reads-during-ingest drills: same (dataset, seed) → same row stream, which
// is what lets a from-scratch replay reproduce an ingested table bit for
// bit. Value domains are sampled from the built dataset at construction
// (numeric ranges from the column data, words from the existing vocabulary,
// points from the extent, times from the dataset's time domain).
type IngestStream struct {
	rng   *rand.Rand
	specs []streamCol
}

// streamCol is one column's generation recipe.
type streamCol struct {
	name string
	typ  engine.ColType
	lo   float64
	hi   float64
	ext  engine.Rect
	t0   time.Time
	days int
	word []string
}

// streamWordSample caps how many vocabulary words a stream draws from.
const streamWordSample = 512

// NewIngestStream builds a generator over the dataset's main table. It scans
// the current column data for value ranges, so construct it before starting
// concurrent ingestion.
func NewIngestStream(ds *Dataset, seed int64) (*IngestStream, error) {
	t := ds.DB.Table(ds.Main)
	if t == nil {
		return nil, fmt.Errorf("workload: dataset %q has no table %q", ds.Name, ds.Main)
	}
	st := &IngestStream{rng: rand.New(rand.NewSource(seed))}
	for _, c := range t.Cols {
		sc := streamCol{name: c.Name, typ: c.Type}
		switch c.Type {
		case engine.ColInt64, engine.ColFloat64:
			lo, hi := 0.0, 1.0
			if c.Len() > 0 {
				lo = c.NumericAt(0)
				hi = lo
				for i := 1; i < c.Len(); i++ {
					v := c.NumericAt(uint32(i))
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
			}
			sc.lo, sc.hi = lo, hi
		case engine.ColTime:
			sc.t0, sc.days = ds.TimeOrigin, ds.TimeSpanDays
			if sc.days <= 0 {
				sc.days = 1
			}
		case engine.ColPoint:
			sc.ext = ds.Extent
			if sc.ext.Area() <= 0 {
				sc.ext = engine.Rect{MinLon: -1, MinLat: -1, MaxLon: 1, MaxLat: 1}
			}
		case engine.ColText:
			seen := make(map[uint32]bool)
			for _, toks := range c.Texts {
				for _, id := range toks {
					if !seen[id] {
						seen[id] = true
						sc.word = append(sc.word, t.Vocab.Word(id))
						if len(sc.word) >= streamWordSample {
							break
						}
					}
				}
				if len(sc.word) >= streamWordSample {
					break
				}
			}
			if len(sc.word) == 0 {
				sc.word = []string{"ingest"}
			}
		}
		st.specs = append(st.specs, sc)
	}
	return st, nil
}

// Next generates the next n rows of the stream.
func (st *IngestStream) Next(n int) []map[string]any {
	rows := make([]map[string]any, n)
	for i := range rows {
		row := make(map[string]any, len(st.specs))
		for _, sc := range st.specs {
			switch sc.typ {
			case engine.ColInt64:
				row[sc.name] = float64(int64(sc.lo + st.rng.Float64()*(sc.hi-sc.lo)))
			case engine.ColFloat64:
				row[sc.name] = sc.lo + st.rng.Float64()*(sc.hi-sc.lo)
			case engine.ColTime:
				at := sc.t0.Add(time.Duration(st.rng.Float64()*float64(sc.days)*24) * time.Hour)
				row[sc.name] = at.UTC().Format(time.RFC3339)
			case engine.ColPoint:
				row[sc.name] = []any{
					sc.ext.MinLon + st.rng.Float64()*(sc.ext.MaxLon-sc.ext.MinLon),
					sc.ext.MinLat + st.rng.Float64()*(sc.ext.MaxLat-sc.ext.MinLat),
				}
			case engine.ColText:
				k := 3 + st.rng.Intn(5)
				s := ""
				for j := 0; j < k; j++ {
					if j > 0 {
						s += " "
					}
					s += sc.word[st.rng.Intn(len(sc.word))]
				}
				row[sc.name] = s
			}
		}
		rows[i] = row
	}
	return rows
}
