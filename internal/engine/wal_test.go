package engine

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// walTestApply applies n deterministic batches through ApplyBatch (so an
// attached WAL logs them), returning the final version.
func walTestApply(t *testing.T, db *DB, n int) uint64 {
	t.Helper()
	at := time.Unix(1700000000, 0)
	var v uint64
	for i := 0; i < n; i++ {
		var err error
		v, err = db.ApplyBatch("events", ingestBatch(t, 300+int64(i), 40), at.Add(time.Duration(i)*time.Second))
		if err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// walTestDB builds the standard test DB with a 20% sample (so replay must
// reconstruct sample membership too).
func walTestDB(t *testing.T, seed int64) *DB {
	t.Helper()
	db := buildTestDB(t, 1000, seed)
	if _, err := db.Table("events").BuildSample(20, seed); err != nil {
		t.Fatal(err)
	}
	return db
}

// sameVersionState compares version and flush history between two tables.
func sameVersionState(t *testing.T, a, b *Table) {
	t.Helper()
	if a.DataVersion() != b.DataVersion() {
		t.Fatalf("version %d vs %d", a.DataVersion(), b.DataVersion())
	}
	ha, hb := a.historySnapshot(), b.historySnapshot()
	if len(ha) != len(hb) {
		t.Fatalf("history length %d vs %d", len(ha), len(hb))
	}
	for i := range ha {
		if ha[i].Version != hb[i].Version || !ha[i].At.Equal(hb[i].At) {
			t.Fatalf("history[%d] = %+v vs %+v", i, ha[i], hb[i])
		}
	}
}

// sameRecoveredState is the full bit-identity check: table data, sample data,
// versions, history, and index answers.
func sameRecoveredState(t *testing.T, a, b *DB) {
	t.Helper()
	ta, tb := a.Table("events"), b.Table("events")
	sameTableData(t, ta, tb)
	sameTableData(t, ta.Samples[20], tb.Samples[20])
	sameVersionState(t, ta, tb)
	sameVersionState(t, ta.Samples[20], tb.Samples[20])
	for _, p := range []Predicate{
		{Col: "ts", Kind: PredRange, Lo: 0, Hi: 5000},
		{Col: "loc", Kind: PredGeo, Box: Rect{MinLon: 10, MinLat: 5, MaxLon: 80, MaxLat: 45}},
		{Col: "text", Kind: PredKeyword, Word: 3},
	} {
		ra, ea, err := ta.Index(p.Col).Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		rb, eb, err := tb.Index(p.Col).Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		if ea != eb || ra.Len() != rb.Len() {
			t.Fatalf("%s lookup diverges after replay", p.Col)
		}
		if !equalRows(ra.AppendTo(nil), rb.AppendTo(nil)) {
			t.Fatalf("%s lookup rows diverge after replay", p.Col)
		}
	}
}

// TestWALReplayBitIdentical: a crashed-and-restarted table (fresh base build
// + WAL replay) is bit-identical to the table that never crashed — rows,
// samples, indexes, versions, and flush history.
func TestWALReplayBitIdentical(t *testing.T) {
	dir := t.TempDir()
	live := walTestDB(t, 7)
	w, st, err := live.AttachWAL("events", dir, WALConfig{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 0 || st.Checkpoint {
		t.Fatalf("fresh attach replayed %+v", st)
	}
	walTestApply(t, live, 5)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := walTestDB(t, 7)
	_, st2, err := recovered.AttachWAL("events", dir, WALConfig{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Records != 5 || st2.Version != 5 || st2.Truncated {
		t.Fatalf("replay stats %+v, want 5 records to version 5", st2)
	}
	sameRecoveredState(t, live, recovered)

	// Vocabulary re-interning must reproduce the same ids.
	va, vb := live.Table("events").Vocab, recovered.Table("events").Vocab
	if va.Len() != vb.Len() {
		t.Fatalf("vocab %d vs %d words after replay", va.Len(), vb.Len())
	}
	for id := uint32(1); int(id) <= va.Len(); id++ {
		if va.Word(id) != vb.Word(id) {
			t.Fatalf("vocab id %d = %q vs %q", id, va.Word(id), vb.Word(id))
		}
	}
}

// TestWALDoubleReplayIdempotent: replaying the same records onto an
// already-recovered table applies nothing (seq <= current version is
// skipped), so a crash *during* recovery re-replays safely.
func TestWALDoubleReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	live := walTestDB(t, 7)
	w, _, err := live.AttachWAL("events", dir, WALConfig{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	walTestApply(t, live, 4)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := walTestDB(t, 7)
	w2, _, err := recovered.AttachWAL("events", dir, WALConfig{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	var again WALReplayStats
	if err := recovered.replayWAL(w2, recovered.Table("events"), &again); err != nil {
		t.Fatal(err)
	}
	if again.Records != 0 || again.Rows != 0 {
		t.Fatalf("double replay applied %+v, want nothing", again)
	}
	sameRecoveredState(t, live, recovered)
}

// lastSegment returns the path of the newest WAL segment in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), walSegmentPrefix) && strings.HasSuffix(e.Name(), walSegmentSuffix) {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	if len(segs) == 0 {
		t.Fatal("no WAL segments")
	}
	return segs[len(segs)-1]
}

// TestWALTornFinalRecord: a crash mid-write leaves a torn final record; the
// replay truncates at the last valid record and never surfaces the partial
// flush.
func TestWALTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	live := walTestDB(t, 7)
	w, _, err := live.AttachWAL("events", dir, WALConfig{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	walTestApply(t, live, 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	seg := lastSegment(t, dir)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	recovered := walTestDB(t, 7)
	_, st, err := recovered.AttachWAL("events", dir, WALConfig{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Truncated || st.Version != 2 || st.Records != 2 {
		t.Fatalf("replay stats %+v, want truncated at version 2", st)
	}

	// Control: the first two flushes only.
	control := walTestDB(t, 7)
	at := time.Unix(1700000000, 0)
	for i := 0; i < 2; i++ {
		if _, err := control.ApplyBatch("events", ingestBatch(t, 300+int64(i), 40), at.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	sameRecoveredState(t, control, recovered)
}

// TestWALCRCFlipMidSegment: bit rot inside an earlier record stops replay at
// the last record before the flip; everything after is discarded, partial
// state is never surfaced.
func TestWALCRCFlipMidSegment(t *testing.T) {
	dir := t.TempDir()
	live := walTestDB(t, 7)
	w, _, err := live.AttachWAL("events", dir, WALConfig{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	walTestApply(t, live, 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the second record's payload. Records are identically
	// sized only by accident, so locate the second frame by walking the first.
	seg := lastSegment(t, dir)
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	payload, _, ok := splitWALFrame(buf)
	if !ok {
		t.Fatal("cannot parse first frame")
	}
	second := 8 + len(payload) // offset of frame 2
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{buf[second+16] ^ 0xFF}, int64(second+16)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recovered := walTestDB(t, 7)
	_, st, err := recovered.AttachWAL("events", dir, WALConfig{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Truncated || st.Version != 1 || st.Records != 1 {
		t.Fatalf("replay stats %+v, want truncated at version 1", st)
	}
	if info, err := os.Stat(seg); err != nil || info.Size() != int64(second) {
		t.Fatalf("segment not truncated at last valid record: size %d, want %d", info.Size(), second)
	}
}

// TestWALZeroLengthTail: preallocated or torn-header zero bytes after the
// last record are cut without losing any whole record.
func TestWALZeroLengthTail(t *testing.T) {
	dir := t.TempDir()
	live := walTestDB(t, 7)
	w, _, err := live.AttachWAL("events", dir, WALConfig{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	walTestApply(t, live, 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	seg := lastSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 24)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recovered := walTestDB(t, 7)
	_, st, err := recovered.AttachWAL("events", dir, WALConfig{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Truncated || st.Version != 3 || st.Records != 3 {
		t.Fatalf("replay stats %+v, want all 3 records with tail truncated", st)
	}
	sameRecoveredState(t, live, recovered)
}

// TestWALCheckpointBoundsLog: tiny segments force rotation; once sealed
// segments exceed the bound a checkpoint compacts them and deletes the
// files — and recovery through the checkpoint is still bit-identical.
func TestWALCheckpointBoundsLog(t *testing.T) {
	dir := t.TempDir()
	cfg := WALConfig{Policy: FsyncNever, MaxSegmentBytes: 4 << 10, CheckpointSegments: 2}
	live := walTestDB(t, 7)
	w, _, err := live.AttachWAL("events", dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	walTestApply(t, live, 12)
	ws := w.Stats()
	if ws.Checkpoints == 0 {
		t.Fatalf("no checkpoint after 12 flushes with %d-byte segments: %+v", cfg.MaxSegmentBytes, ws)
	}
	if ws.Segments > cfg.CheckpointSegments+2 {
		t.Fatalf("log unbounded: %d segments live", ws.Segments)
	}
	if err := w.CheckpointErr(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, walCheckpointFile)); err != nil {
		t.Fatal("checkpoint file missing")
	}

	recovered := walTestDB(t, 7)
	_, st, err := recovered.AttachWAL("events", dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Checkpoint {
		t.Fatalf("replay ignored the checkpoint: %+v", st)
	}
	if st.Version != 12 {
		t.Fatalf("recovered version %d, want 12", st.Version)
	}
	sameRecoveredState(t, live, recovered)
}

// TestWALAppendAfterRecovery: the log stays usable after a truncating
// recovery — new flushes append after the cut and a second recovery sees
// both generations.
func TestWALAppendAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	live := walTestDB(t, 7)
	w, _, err := live.AttachWAL("events", dir, WALConfig{Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	walTestApply(t, live, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	info, _ := os.Stat(seg)
	if err := os.Truncate(seg, info.Size()-1); err != nil {
		t.Fatal(err)
	}

	mid := walTestDB(t, 7)
	w2, st, err := mid.AttachWAL("events", dir, WALConfig{Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 1 || !st.Truncated {
		t.Fatalf("replay stats %+v, want truncation to version 1", st)
	}
	// Re-apply flush 2 (the one the torn record lost) plus a new flush 3.
	at := time.Unix(1700000000, 0)
	for i := 1; i < 3; i++ {
		if _, err := mid.ApplyBatch("events", ingestBatch(t, 300+int64(i), 40), at.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	final := walTestDB(t, 7)
	_, st2, err := final.AttachWAL("events", dir, WALConfig{Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Version != 3 || st2.Truncated {
		t.Fatalf("second recovery stats %+v, want clean replay to version 3", st2)
	}
	sameRecoveredState(t, mid, final)
}

// approxProbeSet returns the four approximate-tier probes (row sample,
// reservoir, CMS count, HLL distinct) the replay-determinism test compares.
func approxProbeSet() []*Query {
	win := []Predicate{{Col: "ts", Kind: PredRange, Lo: 2000, Hi: 7000}}
	return []*Query{
		{Table: "events", Preds: win,
			Bin:    &BinSpec{Col: "loc", Extent: Rect{MinLon: 0, MinLat: 0, MaxLon: 100, MaxLat: 50}, W: 8, H: 8},
			Approx: ApproxSpec{Method: ApproxRows, Rate: 0.3}},
		{Table: "events", Preds: win,
			Approx: ApproxSpec{Method: ApproxReservoir, K: 40}},
		{Table: "events", Preds: append([]Predicate{{Col: "text", Kind: PredKeyword, Word: 3}}, win...),
			Approx: ApproxSpec{Method: ApproxSketchCount}},
		{Table: "events", Preds: win,
			Approx: ApproxSpec{Method: ApproxSketchDistinct}},
	}
}

// TestWALReplayApproxDeterminism extends the bit-identity recovery contract
// to the approximate tier: after a crash and WAL replay, every approximate
// method returns byte-identical results and identical virtual timings for
// the same (seed, fingerprint) — samples because the keep hash is a pure
// function of (seed, row id), sketches because their updates commute, so
// replayed batches rebuild the identical summary state.
func TestWALReplayApproxDeterminism(t *testing.T) {
	dir := t.TempDir()
	live := walTestDB(t, 7)
	if _, err := live.Table("events").BuildSketch("text", "ts", time.Second); err != nil {
		t.Fatal(err)
	}
	w, _, err := live.AttachWAL("events", dir, WALConfig{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	walTestApply(t, live, 5)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover: fresh base build, sketch attached BEFORE replay so the
	// replayed batches maintain it incrementally — the production order.
	recovered := walTestDB(t, 7)
	if _, err := recovered.Table("events").BuildSketch("text", "ts", time.Second); err != nil {
		t.Fatal(err)
	}
	if _, st, err := recovered.AttachWAL("events", dir, WALConfig{Policy: FsyncNever}); err != nil || st.Records != 5 {
		t.Fatalf("replay: %v, stats %+v", err, st)
	}
	sameRecoveredState(t, live, recovered)

	for i, q := range approxProbeSet() {
		resLive, statsLive, err := live.Run(q, AutoHint())
		if err != nil {
			t.Fatalf("probe %d live: %v", i, err)
		}
		resRec, statsRec, err := recovered.Run(q, AutoHint())
		if err != nil {
			t.Fatalf("probe %d recovered: %v", i, err)
		}
		if !reflect.DeepEqual(resLive, resRec) {
			t.Errorf("probe %d (%s): results diverge after replay", i, q.Approx.Method)
		}
		if statsLive.SimMs != statsRec.SimMs {
			t.Errorf("probe %d (%s): SimMs %v vs %v after replay", i, q.Approx.Method, statsLive.SimMs, statsRec.SimMs)
		}
		if !resLive.Approx {
			t.Errorf("probe %d (%s): result not marked approximate", i, q.Approx.Method)
		}
	}
}

// TestWALFsyncPolicies: every policy accepts appends and closes cleanly, and
// the interval policy's background syncer marks progress.
func TestWALFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			db := walTestDB(t, 7)
			w, _, err := db.AttachWAL("events", t.TempDir(), WALConfig{Policy: policy, SyncInterval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			walTestApply(t, db, 3)
			if policy == FsyncInterval {
				deadline := time.Now().Add(2 * time.Second)
				for w.Stats().Syncs == 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if w.Stats().Syncs == 0 {
					t.Fatal("interval policy never synced")
				}
			}
			if policy == FsyncAlways && w.Stats().Syncs != 3 {
				t.Fatalf("always policy synced %d times, want 3", w.Stats().Syncs)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if _, err := ParseFsyncPolicy("bogus"); err == nil {
		t.Fatal("ParseFsyncPolicy accepted bogus")
	}
}
