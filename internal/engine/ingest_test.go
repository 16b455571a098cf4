package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// ingestBatch builds a valid append batch for buildTestDB's events table,
// deterministic in (seed, n).
func ingestBatch(t testing.TB, seed int64, n int) *Batch {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	texts := make([][]uint32, n)
	times := make([]int64, n)
	points := make([]Point, n)
	vals := make([]float64, n)
	keys := make([]int64, n)
	for i := 0; i < n; i++ {
		k := rng.Intn(4) + 1
		toks := make([]uint32, 0, k)
		for j := 0; j < k; j++ {
			toks = append(toks, uint32(rng.Intn(50))+1)
		}
		texts[i] = SortTokens(toks)
		times[i] = int64(rng.Intn(10000))
		points[i] = Point{Lon: rng.Float64() * 100, Lat: rng.Float64() * 50}
		vals[i] = rng.Float64() * 1000
		keys[i] = int64(rng.Intn(100))
	}
	b := NewBatch()
	for _, c := range []*Column{
		{Name: "text", Type: ColText, Texts: texts},
		{Name: "ts", Type: ColTime, Ints: times},
		{Name: "loc", Type: ColPoint, Points: points},
		{Name: "val", Type: ColFloat64, Floats: vals},
		{Name: "fk", Type: ColInt64, Ints: keys},
	} {
		if err := b.AddColumn(c); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// sameTableData compares every column of two tables value for value.
func sameTableData(t *testing.T, a, b *Table) {
	t.Helper()
	if a.Rows != b.Rows {
		t.Fatalf("%s: rows %d vs %d", a.Name, a.Rows, b.Rows)
	}
	if len(a.Cols) != len(b.Cols) {
		t.Fatalf("%s: %d vs %d columns", a.Name, len(a.Cols), len(b.Cols))
	}
	for _, ca := range a.Cols {
		cb := b.Col(ca.Name)
		switch ca.Type {
		case ColInt64, ColTime:
			if !slices.Equal(ca.Ints, cb.Ints) {
				t.Errorf("%s.%s int data diverges", a.Name, ca.Name)
			}
		case ColFloat64:
			if !slices.Equal(ca.Floats, cb.Floats) {
				t.Errorf("%s.%s float data diverges", a.Name, ca.Name)
			}
		case ColPoint:
			if !slices.Equal(ca.Points, cb.Points) {
				t.Errorf("%s.%s point data diverges", a.Name, ca.Name)
			}
		case ColText:
			if len(ca.Texts) != len(cb.Texts) {
				t.Fatalf("%s.%s text rows diverge", a.Name, ca.Name)
			}
			for i := range ca.Texts {
				if !slices.Equal(ca.Texts[i], cb.Texts[i]) {
					t.Errorf("%s.%s row %d tokens diverge", a.Name, ca.Name, i)
				}
			}
		}
	}
}

// TestAppendBatchFlushBoundaryIndependent is the write path's determinism
// contract: the same row stream applied as many small flushes or one big one
// produces identical table data, identical sample membership, and identical
// index answers — which is what lets a from-scratch replay serve as the
// oracle in the reads-during-ingest byte-identity tests.
func TestAppendBatchFlushBoundaryIndependent(t *testing.T) {
	dbA := buildTestDB(t, 1000, 7)
	dbB := buildTestDB(t, 1000, 7)
	if _, err := dbA.Table("events").BuildSample(20, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := dbB.Table("events").BuildSample(20, 7); err != nil {
		t.Fatal(err)
	}

	// A: three separate flushes. B: the same rows as one merged flush.
	at := time.Unix(1700000000, 0)
	merged := NewBatch()
	for i := int64(0); i < 3; i++ {
		b := ingestBatch(t, 100+i, 40)
		if _, err := dbA.ApplyBatch("events", b, at.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
		if err := merged.merge(ingestBatch(t, 100+i, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dbB.ApplyBatch("events", merged, at); err != nil {
		t.Fatal(err)
	}

	ta, tb := dbA.Table("events"), dbB.Table("events")
	sameTableData(t, ta, tb)
	sameTableData(t, ta.Samples[20], tb.Samples[20])

	// Index answers (rows AND entries touched — entries feed the simulated
	// cost, so tree shape must also be flush-boundary independent).
	preds := []Predicate{
		{Col: "ts", Kind: PredRange, Lo: 0, Hi: 5000},
		{Col: "val", Kind: PredRange, Lo: 100, Hi: 700},
		{Col: "loc", Kind: PredGeo, Box: Rect{MinLon: 10, MinLat: 5, MaxLon: 80, MaxLat: 45}},
		{Col: "text", Kind: PredKeyword, Word: 3},
	}
	for _, p := range preds {
		ra, ea, err := ta.Index(p.Col).Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		rb, eb, err := tb.Index(p.Col).Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ra.AppendTo(nil), rb.AppendTo(nil)) {
			t.Errorf("%s lookup rows diverge across flush boundaries", p.Col)
		}
		if ea != eb {
			t.Errorf("%s lookup entries %d vs %d across flush boundaries", p.Col, ea, eb)
		}
	}

	// Versions differ (3 flushes vs 1) — only data must match.
	if v := ta.DataVersion(); v != 3 {
		t.Errorf("A version = %d, want 3", v)
	}
	if v := tb.DataVersion(); v != 1 {
		t.Errorf("B version = %d, want 1", v)
	}
	if v := ta.Samples[20].DataVersion(); v != 3 {
		t.Errorf("A sample version = %d, want 3 (samples bump with their base)", v)
	}
}

// TestIncrementalIndexMatchesBulkBuild: rows inserted one at a time answer
// exactly like an index built over the final data.
func TestIncrementalIndexMatchesBulkBuild(t *testing.T) {
	db := buildTestDB(t, 500, 11)
	tb := db.Table("events")
	for i := int64(0); i < 4; i++ {
		if _, err := db.ApplyBatch("events", ingestBatch(t, 200+i, 77), time.Unix(1700000000+i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Rebuild each index from the (post-ingest) column data on a shadow
	// table sharing the columns.
	shadow := NewTable("shadow", tb.ScaleFactor)
	for _, c := range tb.Cols {
		if err := shadow.AddColumn(c); err != nil {
			t.Fatal(err)
		}
	}
	for col, ix := range tb.Indexes {
		if _, err := shadow.BuildIndex(col, ix.Kind); err != nil {
			t.Fatal(err)
		}
	}
	preds := []Predicate{
		{Col: "ts", Kind: PredRange, Lo: 2000, Hi: 8000},
		{Col: "loc", Kind: PredGeo, Box: Rect{MinLon: 0, MinLat: 0, MaxLon: 50, MaxLat: 25}},
		{Col: "text", Kind: PredKeyword, Word: 7},
	}
	for _, p := range preds {
		got, _, err := tb.Index(p.Col).Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := shadow.Index(p.Col).Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.AppendTo(nil), want.AppendTo(nil)) {
			t.Errorf("%s: incremental index answers diverge from bulk rebuild (%d vs %d rows)",
				p.Col, got.Len(), want.Len())
		}
	}
}

// TestSampleKeepStateless: membership is a pure function of
// (seed, percent, row) with roughly the right rate.
func TestSampleKeepStateless(t *testing.T) {
	kept := 0
	for row := 0; row < 100000; row++ {
		a := sampleKeep(42, 20, row)
		if b := sampleKeep(42, 20, row); a != b {
			t.Fatalf("sampleKeep not deterministic at row %d", row)
		}
		if a {
			kept++
		}
	}
	if kept < 18000 || kept > 22000 {
		t.Errorf("20%% sample kept %d of 100000", kept)
	}
	// Different seeds decorrelate.
	same := 0
	for row := 0; row < 1000; row++ {
		if sampleKeep(1, 20, row) == sampleKeep(2, 20, row) {
			same++
		}
	}
	if same == 1000 {
		t.Error("seed does not affect sample membership")
	}
}

// TestApplyBatchErrors: schema and targeting mistakes are rejected before
// any mutation.
func TestApplyBatchErrors(t *testing.T) {
	db := buildTestDB(t, 200, 3)
	if _, err := db.Table("events").BuildSample(20, 3); err != nil {
		t.Fatal(err)
	}
	at := time.Unix(1700000000, 0)

	if _, err := db.ApplyBatch("nosuch", ingestBatch(t, 1, 4), at); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := db.ApplyBatch("events_sample20", ingestBatch(t, 1, 4), at); err == nil {
		t.Error("ingest into a sample table accepted")
	}
	if _, err := db.ApplyBatch("events", NewBatch(), at); err == nil {
		t.Error("empty batch accepted")
	}
	partial := NewBatch()
	if err := partial.AddColumn(&Column{Name: "val", Type: ColFloat64, Floats: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ApplyBatch("events", partial, at); err == nil {
		t.Error("partial-schema batch accepted")
	}
	if v := db.DataVersion("events"); v != 0 {
		t.Errorf("rejected batches bumped the version to %d", v)
	}
	if rows := db.Table("events").Rows; rows != 200 {
		t.Errorf("rejected batches changed row count to %d", rows)
	}
}

// TestIngestorSizeTrigger: the pending buffer flushes synchronously the
// moment it reaches MaxBatch rows.
func TestIngestorSizeTrigger(t *testing.T) {
	db := buildTestDB(t, 200, 5)
	clock := time.Unix(1700000000, 0)
	in, err := NewIngestor(db, "events")
	if err != nil {
		t.Fatal(err)
	}
	in.maxBatch = 8
	in.maxDelay = time.Hour // latency trigger out of the picture
	in.now = func() time.Time { return clock }
	if flushed, err := in.Add(ingestBatch(t, 1, 5)); err != nil || flushed {
		t.Fatalf("first add: flushed=%v err=%v, want buffered", flushed, err)
	}
	if p := in.Pending(); p != 5 {
		t.Fatalf("pending = %d, want 5", p)
	}
	if flushed, err := in.Add(ingestBatch(t, 2, 5)); err != nil || !flushed {
		t.Fatalf("second add: flushed=%v err=%v, want size-trigger flush", flushed, err)
	}
	if p := in.Pending(); p != 0 {
		t.Errorf("pending after flush = %d", p)
	}
	if v := in.Version(); v != 1 {
		t.Errorf("version = %d, want 1", v)
	}
	if got := db.Table("events").Rows; got != 210 {
		t.Errorf("table rows = %d, want 210", got)
	}
}

// TestIngestorAdaptiveDelay: the latency-trigger delay tracks 8× the EWMA
// inter-append gap, clamped to [ingestMinDelay, ingestMaxDelay].
func TestIngestorAdaptiveDelay(t *testing.T) {
	db := buildTestDB(t, 200, 5)
	clock := time.Unix(1700000000, 0)
	in, err := NewIngestor(db, "events")
	if err != nil {
		t.Fatal(err)
	}
	in.maxBatch = 1 << 20 // size trigger out of the picture
	in.now = func() time.Time { return clock }
	delay := func() time.Duration {
		in.mu.Lock()
		defer in.mu.Unlock()
		return in.delay()
	}
	// No gap observed yet → floor.
	if d := delay(); d != ingestMinDelay {
		t.Errorf("cold delay = %v, want the floor %v", d, ingestMinDelay)
	}
	add := func(seed int64, gap time.Duration) {
		t.Helper()
		clock = clock.Add(gap)
		if _, err := in.Add(ingestBatch(t, seed, 2)); err != nil {
			t.Fatal(err)
		}
	}
	add(1, 0) // first add: no gap sample yet
	add(2, 8*time.Millisecond)
	// One 8ms gap → ewma 8ms → delay 64ms.
	if d := delay(); d != 64*time.Millisecond {
		t.Errorf("delay after one 8ms gap = %v, want 64ms", d)
	}
	// A burst of back-to-back adds converges the EWMA toward 0 → floor.
	for i := int64(3); i < 20; i++ {
		add(i, 0)
	}
	if d := delay(); d != ingestMinDelay {
		t.Errorf("dense-stream delay = %v, want the floor %v", d, ingestMinDelay)
	}
	// A sparse stream is capped at the ceiling.
	for i := int64(20); i < 26; i++ {
		add(i, 5*time.Second)
	}
	if d := delay(); d != ingestMaxDelay {
		t.Errorf("sparse-stream delay = %v, want the ceiling %v", d, ingestMaxDelay)
	}
	if _, err := in.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestIngestorLatencyTrigger: a buffered batch becomes visible without any
// further traffic once the adaptive timer fires.
func TestIngestorLatencyTrigger(t *testing.T) {
	db := buildTestDB(t, 200, 5)
	in, err := NewIngestor(db, "events")
	if err != nil {
		t.Fatal(err)
	}
	in.maxBatch = 1 << 20
	in.minDelay, in.maxDelay = time.Millisecond, 5*time.Millisecond
	if flushed, err := in.Add(ingestBatch(t, 1, 3)); err != nil || flushed {
		t.Fatalf("add: flushed=%v err=%v", flushed, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if in.Version() >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("latency trigger never flushed")
		}
		time.Sleep(time.Millisecond)
	}
	if v := in.Version(); v != 1 {
		t.Errorf("version = %d, want 1", v)
	}
	if p := in.Pending(); p != 0 {
		t.Errorf("pending = %d", p)
	}
}

// TestIngestorClose: Close flushes the tail and rejects further adds.
func TestIngestorClose(t *testing.T) {
	db := buildTestDB(t, 200, 5)
	in, err := NewIngestor(db, "events")
	if err != nil {
		t.Fatal(err)
	}
	in.maxBatch, in.maxDelay = 1<<20, time.Hour
	if _, err := in.Add(ingestBatch(t, 1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db.Table("events").Rows; got != 203 {
		t.Errorf("close did not flush the tail: rows = %d, want 203", got)
	}
	if _, err := in.Add(ingestBatch(t, 2, 3)); err == nil {
		t.Error("add after close accepted")
	}
}

// TestIngestorCloseWaitsForInFlightFlush: a flush the latency timer started
// is still applying (held in a flush hook) when Close is called; Close must
// not return before that flush has, or a caller that closes the WAL next
// loses the batch.
func TestIngestorCloseWaitsForInFlightFlush(t *testing.T) {
	db := buildTestDB(t, 200, 5)
	in, err := NewIngestor(db, "events")
	if err != nil {
		t.Fatal(err)
	}
	in.maxBatch = 1 << 20
	in.minDelay, in.maxDelay = time.Millisecond, time.Millisecond
	entered, release := make(chan struct{}), make(chan struct{})
	var hookDone atomic.Bool
	db.OnFlush(func(string, uint64) {
		close(entered)
		<-release
		hookDone.Store(true)
	})
	if _, err := in.Add(ingestBatch(t, 1, 3)); err != nil {
		t.Fatal(err)
	}
	<-entered
	closed := make(chan error, 1)
	go func() { closed <- in.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while the timer's flush was still applying")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if !hookDone.Load() {
		t.Error("Close returned before the in-flight flush finished")
	}
}

// TestIngestorSyncFlushWaitsForTimerFlush: the latency timer's flush has
// taken the pending rows and is blocked applying them (a reader holds the
// data lock). A sync Flush then finds nothing pending, but it must not
// return until those rows are applied: its caller acknowledges them as
// visible and logged.
func TestIngestorSyncFlushWaitsForTimerFlush(t *testing.T) {
	db := buildTestDB(t, 200, 5)
	in, err := NewIngestor(db, "events")
	if err != nil {
		t.Fatal(err)
	}
	in.minDelay, in.maxDelay = time.Millisecond, time.Millisecond
	db.RLockData()
	if _, err := in.Add(ingestBatch(t, 1, 3)); err != nil {
		db.RUnlockData()
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for in.Pending() != 0 {
		if time.Now().After(deadline) {
			db.RUnlockData()
			t.Fatal("the latency timer never took the pending rows")
		}
		time.Sleep(time.Millisecond)
	}
	type flushed struct {
		v   uint64
		err error
	}
	done := make(chan flushed, 1)
	go func() {
		v, err := in.Flush()
		done <- flushed{v, err}
	}()
	select {
	case f := <-done:
		db.RUnlockData()
		t.Fatalf("sync Flush returned v%d while the timer's flush was blocked (err %v)", f.v, f.err)
	case <-time.After(50 * time.Millisecond):
	}
	db.RUnlockData()
	f := <-done
	if f.err != nil {
		t.Fatal(f.err)
	}
	if rows := db.Table("events").Rows; f.v != 1 || rows != 203 {
		t.Fatalf("sync Flush returned v%d with rows=%d, want v1 with 203", f.v, rows)
	}
}

// TestFlushHooksAndStatsRefresh: a flush invalidates and eagerly rebuilds
// optimizer statistics and fires registered hooks with the new version.
func TestFlushHooksAndStatsRefresh(t *testing.T) {
	db := buildTestDB(t, 500, 9)
	preTotal := db.Stats("events").Hists["ts"].Total // force the pre-flush build
	var hooks []string
	db.OnFlush(func(table string, version uint64) {
		hooks = append(hooks, fmt.Sprintf("%s@%d", table, version))
	})
	if _, err := db.ApplyBatch("events", ingestBatch(t, 1, 50), time.Unix(1700000000, 0)); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats("events").Hists["ts"].Total; got != preTotal+50 {
		t.Errorf("post-flush stats histogram total = %d, want %d", got, preTotal+50)
	}
	if len(hooks) != 1 || hooks[0] != "events@1" {
		t.Errorf("flush hooks = %v, want [events@1]", hooks)
	}
}

// TestFlushHookRemove: a removed flush hook is never called again, removing
// one hook leaves the others firing, and a second remove is a no-op.
func TestFlushHookRemove(t *testing.T) {
	db := buildTestDB(t, 500, 9)
	var removedCalls, keptCalls int
	remove := db.OnFlush(func(string, uint64) { removedCalls++ })
	db.OnFlush(func(string, uint64) { keptCalls++ })
	remove()
	remove()
	for i := 1; i <= 2; i++ {
		if _, err := db.ApplyBatch("events", ingestBatch(t, int64(i), 10), time.Unix(1700000000, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if removedCalls != 0 {
		t.Errorf("removed hook fired %d times, want 0", removedCalls)
	}
	if keptCalls != 2 {
		t.Errorf("remaining hook fired %d times, want 2", keptCalls)
	}
}
