package engine

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
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
func walTestDB(t testing.TB, seed int64) *DB {
	t.Helper()
	db := buildTestDB(t, 1000, seed)
	if _, err := db.Table("events").BuildSample(20, seed); err != nil {
		t.Fatal(err)
	}
	return db
}

// sameVersionState compares the data versions of two tables.
func sameVersionState(t *testing.T, a, b *Table) {
	t.Helper()
	if a.DataVersion() != b.DataVersion() {
		t.Fatalf("version %d vs %d", a.DataVersion(), b.DataVersion())
	}
}

// sameRecoveredState is the full bit-identity check: table data, sample data,
// versions, and index answers.
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
// samples, indexes, and versions.
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
	cfg := WALConfig{Policy: FsyncNever}
	live := walTestDB(t, 7)
	w, _, err := live.AttachWAL("events", dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.segmentBytes, w.checkpointSegments = 4<<10, 2
	walTestApply(t, live, 12)
	ws := w.Stats()
	if ws.Checkpoints == 0 {
		t.Fatalf("no checkpoint after 12 flushes with %d-byte segments: %+v", w.segmentBytes, ws)
	}
	if ws.Segments > w.checkpointSegments+2 {
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

// TestWALFsyncPolicies: every policy accepts appends and closes cleanly, and
// the interval policy's background syncer marks progress.
func TestWALFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			db := walTestDB(t, 7)
			w, _, err := db.AttachWAL("events", t.TempDir(), WALConfig{Policy: policy})
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

// oldLayoutCheckpoint hand-encodes tb's checkpoint the way builds that kept
// a flush history wrote it: three (version, flush time) stamps between the
// base row count and the columns.
func oldLayoutCheckpoint(tb *Table, baseRows int) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, tb.DataVersion())
	buf = binary.LittleEndian.AppendUint64(buf, uint64(baseRows))
	buf = binary.LittleEndian.AppendUint32(buf, 3)
	for i := uint64(0); i < 3; i++ {
		buf = binary.LittleEndian.AppendUint64(buf, tb.DataVersion()-2+i)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(time.Unix(1700000000+int64(i), 0).UnixNano()))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tb.Cols)))
	for _, c := range tb.Cols {
		buf = appendWALColumn(buf, c, baseRows, tb.Rows, tb.Vocab)
	}
	return buf
}

// TestWALOldLayoutCheckpointReplays: a checkpoint that still carries flush
// stamps replays to the same rows, samples, indexes and data version; the
// stamps are skipped.
func TestWALOldLayoutCheckpointReplays(t *testing.T) {
	dir := t.TempDir()
	live := walTestDB(t, 7)
	w, _, err := live.AttachWAL("events", dir, WALConfig{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	walTestApply(t, live, 5)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint supersedes every segment, as after a compaction.
	segs, err := filepath.Glob(filepath.Join(dir, walSegmentPrefix+"*"+walSegmentSuffix))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments %v: %v", segs, err)
	}
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}
	frame := walFrame(oldLayoutCheckpoint(live.Table("events"), 1000))
	if err := os.WriteFile(filepath.Join(dir, walCheckpointFile), frame, 0o644); err != nil {
		t.Fatal(err)
	}

	recovered := walTestDB(t, 7)
	_, st, err := recovered.AttachWAL("events", dir, WALConfig{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Checkpoint || st.Version != 5 || st.CheckpointRows != 200 {
		t.Fatalf("replay stats %+v, want the 200-row checkpoint at version 5", st)
	}
	sameRecoveredState(t, live, recovered)
}

// TestWALRowCountBoundedByPayload: a short record claiming 2^24 int64 rows is
// rejected before the count sizes an allocation.
func TestWALRowCountBoundedByPayload(t *testing.T) {
	payload := binary.LittleEndian.AppendUint64(nil, 1) // seq
	payload = binary.LittleEndian.AppendUint64(payload, 0)
	payload = binary.LittleEndian.AppendUint32(payload, 1) // one column
	payload = binary.LittleEndian.AppendUint16(payload, 2)
	payload = append(payload, "ts"...)
	payload = append(payload, byte(ColInt64))
	payload = binary.LittleEndian.AppendUint32(payload, 1<<24)
	payload = binary.LittleEndian.AppendUint64(payload, 42) // one row's bytes

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := decodeWALRecord(payload, NewVocab())
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a record claiming 2^24 rows in 8 bytes decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("rejecting the record allocated %d bytes, want < 1 MiB", grew)
	}
}

// TestWALRejectedRecordInternsNothing: a framed record that fails to decode
// — here, one trailing byte — leaves the vocabulary as it was, although its
// text column carries words the vocabulary does not know.
func TestWALRejectedRecordInternsNothing(t *testing.T) {
	vocab := NewVocab()
	vocab.Intern("known")
	b := NewBatch()
	if err := b.AddColumn(&Column{Name: "text", Type: ColText, Texts: [][]uint32{{1}}}); err != nil {
		t.Fatal(err)
	}
	src := NewVocab()
	src.Intern("fresh")
	payload := append(encodeWALRecord(nil, 1, time.Unix(0, 0), b, src), 0)
	if _, _, _, err := decodeWALRecord(payload, vocab); err == nil {
		t.Fatal("a record with a trailing byte decoded")
	}
	if vocab.Len() != 1 || vocab.ID("fresh") != 0 {
		t.Fatalf("rejected record interned its word: vocabulary %d words, id(fresh) = %d", vocab.Len(), vocab.ID("fresh"))
	}
}

// walFuzzVocab is the vocabulary buildTestDB starts from: words a…z as ids
// 1…26, so token ids above 26 are stored raw.
func walFuzzVocab() *Vocab {
	v := NewVocab()
	for w := 0; w < 26; w++ {
		v.Intern(string(rune('a' + w)))
	}
	return v
}

// FuzzWALRecord feeds arbitrary payloads to the record and checkpoint
// decoders: neither panics, a rejected payload interns no word, and an
// accepted record re-encodes to the bytes it was decoded from.
func FuzzWALRecord(f *testing.F) {
	db := walTestDB(f, 7)
	tb := db.Table("events")
	at := time.Unix(1700000000, 0)
	for i := 0; i < 3; i++ {
		b := ingestBatch(f, 300+int64(i), 1+i*3)
		rec := encodeWALRecord(nil, uint64(i+1), at, b, tb.Vocab)
		if _, _, _, err := decodeWALRecord(rec, walFuzzVocab()); err != nil {
			f.Fatalf("seed record %d does not decode: %v", i, err)
		}
		f.Add(rec)
		if _, err := db.ApplyBatch("events", b, at); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(encodeWALRecord(nil, 9, at, NewBatch(), tb.Vocab))
	f.Add(encodeWALCheckpoint(nil, tb, 1000))
	f.Add(oldLayoutCheckpoint(tb, 1000))
	f.Fuzz(func(t *testing.T, payload []byte) {
		vocab := walFuzzVocab()
		words := vocab.Len()
		seq, at, b, err := decodeWALRecord(payload, vocab)
		if err != nil {
			if vocab.Len() != words {
				t.Fatalf("rejected record (%v) grew the vocabulary %d → %d", err, words, vocab.Len())
			}
		} else if again := encodeWALRecord(nil, seq, at, b, vocab); !bytes.Equal(again, payload) {
			t.Fatalf("record re-encodes differently\n got %x\nwant %x", again, payload)
		}
		vocab = walFuzzVocab()
		if _, _, _, err := decodeWALCheckpoint(payload, vocab); err != nil && vocab.Len() != words {
			t.Fatalf("rejected checkpoint (%v) grew the vocabulary %d → %d", err, words, vocab.Len())
		}
	})
}
