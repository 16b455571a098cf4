package engine

import "fmt"

// PredKind enumerates the predicate kinds the engine supports, matching the
// three condition types in the paper's workloads (keyword, range, box).
type PredKind uint8

const (
	// PredKeyword matches rows whose text column contains a word.
	PredKeyword PredKind = iota
	// PredRange matches rows whose numeric/time column is in [Lo, Hi].
	PredRange
	// PredGeo matches rows whose point column falls inside Box.
	PredGeo
)

// String returns a short name for the predicate kind.
func (k PredKind) String() string {
	switch k {
	case PredKeyword:
		return "keyword"
	case PredRange:
		return "range"
	case PredGeo:
		return "geo"
	}
	return fmt.Sprintf("PredKind(%d)", uint8(k))
}

// Predicate is one conjunct of a query's WHERE clause.
type Predicate struct {
	Col  string
	Kind PredKind

	// PredKeyword
	Word     uint32
	WordText string // for SQL rendering

	// PredRange: inclusive bounds, as float64 (times are unix ms).
	Lo, Hi float64

	// PredGeo
	Box Rect
}

// Eval evaluates the predicate against one row of t. It defines predicate
// semantics and resolves the column on every call; loops over many rows bind
// the predicate once instead (see boundPred), and the differential tests hold
// the bound form to this one.
func (p Predicate) Eval(t *Table, row uint32) bool {
	c := t.Col(p.Col)
	switch p.Kind {
	case PredKeyword:
		return HasToken(c.Texts[row], p.Word)
	case PredRange:
		v := c.NumericAt(row)
		return v >= p.Lo && v <= p.Hi
	case PredGeo:
		return p.Box.Contains(c.Points[row])
	}
	return false
}

// boundPred is a predicate bound to its column's typed storage: the executor
// resolves the column once per execution and then tests rows against the
// slice directly, where Eval pays a Table.Col map probe (and, for ranges, the
// NumericAt type switch) on every row. eval(row) == Predicate.Eval(t, row)
// for every row, including which mismatched (kind, column type) pairs panic.
//
// A boundPred aliases table column slices, so it is only valid while the
// table cannot be appended to — inside one execution, which the serving
// layer runs under the data read lock.
type boundPred struct {
	op     boundOp
	word   uint32
	lo, hi float64
	box    Rect
	ints   []int64
	floats []float64
	points []Point
	texts  [][]uint32
	col    *Column // opRangeOther only
}

// boundOp is the predicate kind specialised by column storage.
type boundOp uint8

const (
	opNever boundOp = iota // unknown predicate kind: Eval reports false
	opKeyword
	opRangeInts
	opRangeFloats
	opRangeOther // range over a non-numeric column: NumericAt panics per row, as Eval does
	opGeo
)

// bind resolves p against t's column storage.
func (p Predicate) bind(t *Table) boundPred {
	c := t.Col(p.Col)
	b := boundPred{word: p.Word, lo: p.Lo, hi: p.Hi, box: p.Box}
	switch p.Kind {
	case PredKeyword:
		b.op, b.texts = opKeyword, c.Texts
	case PredRange:
		switch c.Type {
		case ColInt64, ColTime:
			b.op, b.ints = opRangeInts, c.Ints
		case ColFloat64:
			b.op, b.floats = opRangeFloats, c.Floats
		default:
			b.op, b.col = opRangeOther, c
		}
	case PredGeo:
		b.op, b.points = opGeo, c.Points
	}
	return b
}

// eval tests one row.
func (b *boundPred) eval(row uint32) bool {
	switch b.op {
	case opKeyword:
		return HasToken(b.texts[row], b.word)
	case opRangeInts:
		v := float64(b.ints[row])
		return v >= b.lo && v <= b.hi
	case opRangeFloats:
		v := b.floats[row]
		return v >= b.lo && v <= b.hi
	case opGeo:
		return b.box.Contains(b.points[row])
	case opRangeOther:
		v := b.col.NumericAt(row)
		return v >= b.lo && v <= b.hi
	}
	return false
}

// bindPreds appends the bound form of preds to dst (reused scratch). With
// cheapFirst, columnar range/geo tests come before keyword searches, which
// chase a pointer per row: only scans that charge per row and never per
// predicate evaluation may ask for it, because reordering changes how many
// evaluations a short-circuiting conjunction performs, not its value.
func bindPreds(dst []boundPred, t *Table, preds []Predicate, cheapFirst bool) []boundPred {
	if !cheapFirst {
		for _, p := range preds {
			dst = append(dst, p.bind(t))
		}
		return dst
	}
	for _, p := range preds {
		if p.Kind != PredKeyword {
			dst = append(dst, p.bind(t))
		}
	}
	for _, p := range preds {
		if p.Kind == PredKeyword {
			dst = append(dst, p.bind(t))
		}
	}
	return dst
}

// evalAll reports whether row satisfies every bound predicate.
func evalAll(preds []boundPred, row uint32) bool {
	for i := range preds {
		if !preds[i].eval(row) {
			return false
		}
	}
	return true
}

// String renders the predicate as a SQL condition fragment.
func (p Predicate) String() string {
	switch p.Kind {
	case PredKeyword:
		return fmt.Sprintf("%s contains %q", p.Col, p.WordText)
	case PredRange:
		return fmt.Sprintf("%s BETWEEN %g AND %g", p.Col, p.Lo, p.Hi)
	case PredGeo:
		return fmt.Sprintf("%s IN ((%.4f, %.4f), (%.4f, %.4f))",
			p.Col, p.Box.MinLon, p.Box.MinLat, p.Box.MaxLon, p.Box.MaxLat)
	}
	return "?"
}
