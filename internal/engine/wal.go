package engine

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the engine's durability layer: a per-table write-ahead log
// whose records are appended under the data write lock *before* the in-memory
// mutation they describe. One WAL record corresponds to exactly one applied
// ingest flush (one data-version bump), so startup replay reconstructs rows,
// samples, indexes, and versions bit-identically to the pre-crash state — the
// same flush-boundary-independence property the incremental-vs-bulk
// equivalence tests pin (see appendBatch / sampleKeep). Checkpoints compact
// the appended row suffix into one file and delete the sealed segments it
// covers, keeping the log bounded.

// FsyncPolicy selects when the WAL forces appended records to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every appended record: an acknowledged sync
	// ingest survives machine power loss, at one fsync per flush.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a background timer: an acknowledged row survives
	// process crashes (the write() is in the kernel) but a machine crash can
	// lose up to one sync interval of flushes.
	FsyncInterval
	// FsyncNever leaves syncing to the OS page-cache writeback. Process
	// crashes still lose nothing; machine crashes can lose whatever the
	// kernel had not written back.
	FsyncNever
)

// String returns the policy name as accepted by ParseFsyncPolicy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy parses "always", "interval", or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return FsyncAlways, fmt.Errorf("engine: unknown fsync policy %q (want always|interval|never)", s)
}

// WALConfig tunes one table's write-ahead log.
type WALConfig struct {
	// Policy selects the fsync discipline. Zero value is FsyncAlways.
	Policy FsyncPolicy
}

// WAL tuning.
const (
	// walSyncInterval is the background sync period under FsyncInterval.
	walSyncInterval = 50 * time.Millisecond
	// walSegmentBytes rotates the active segment once it exceeds this size.
	walSegmentBytes = 4 << 20
	// walCheckpointSegments triggers a checkpoint (and sealed-segment
	// deletion) once more than this many sealed segments accumulate.
	walCheckpointSegments = 4
)

// WAL file-layout names. Segment files are wal-<seq>.seg where <seq> is the
// data version of the first record written to the file (advisory ordering;
// each record carries its own seq).
const (
	walMetaFile       = "meta.json"
	walCheckpointFile = "checkpoint"
	walSegmentPrefix  = "wal-"
	walSegmentSuffix  = ".seg"
	// walMaxRecordBytes caps a decoded record's claimed payload length so a
	// corrupt length field cannot drive a huge allocation.
	walMaxRecordBytes = 64 << 20
	// walRawTokenMark flags a text token stored as a raw word id rather than
	// a word string: tables built without vocabulary-backed tokens (bare
	// engine callers) have no word to re-intern, so the id is preserved
	// verbatim.
	walRawTokenMark = 0xFFFF
)

// walMeta is the on-disk WAL identity: which table the log belongs to and how
// many rows the table had when the log was created (the replay baseline — a
// restarted process must rebuild the same base before replaying).
type walMeta struct {
	Table    string `json:"table"`
	BaseRows int    `json:"base_rows"`
}

// WALStats is a point-in-time snapshot of one WAL's activity counters.
type WALStats struct {
	Appends     int64 `json:"appends"`
	Syncs       int64 `json:"syncs"`
	Checkpoints int64 `json:"checkpoints"`
	Segments    int   `json:"segments"`     // sealed + active
	ActiveBytes int64 `json:"active_bytes"` // size of the active segment
}

// WALReplayStats describes what AttachWAL recovered at startup.
type WALReplayStats struct {
	// Checkpoint reports whether a checkpoint file seeded the replay.
	Checkpoint bool `json:"checkpoint"`
	// CheckpointRows is the number of rows the checkpoint restored.
	CheckpointRows int `json:"checkpoint_rows"`
	// Records is the number of log records applied (idempotently-skipped
	// records are not counted).
	Records int `json:"records"`
	// Rows is the number of rows the applied records appended.
	Rows int `json:"rows"`
	// Truncated reports that a torn or corrupt tail was cut at the last
	// valid record.
	Truncated bool `json:"truncated"`
	// Version is the table's data version after replay.
	Version uint64 `json:"version"`
}

// WAL is one base table's write-ahead log: length+CRC32-framed records in
// rotated segment files, with checkpoint-based truncation. Appends happen
// under the owning DB's data write lock (see DB.ApplyBatch), so records are
// strictly ordered by data version.
type WAL struct {
	dir      string
	table    string
	baseRows int
	policy   FsyncPolicy
	// Rotation and checkpoint limits; tests shrink them in-package.
	segmentBytes       int64
	checkpointSegments int

	mu     sync.Mutex
	f      *os.File // active segment
	size   int64
	sealed []string // sealed segment paths, oldest first
	dirty  bool     // written since last sync
	closed bool

	stop chan struct{}
	done chan struct{}

	appends     atomic.Int64
	syncs       atomic.Int64
	checkpoints atomic.Int64

	// lastCheckpointErr records the most recent checkpoint failure. A failed
	// checkpoint loses no data (the segments it would have superseded remain),
	// so the flush that triggered it still succeeds; the error is surfaced
	// here for operators instead.
	lastCheckpointErr atomic.Pointer[error]
}

// noteCheckpointErr records a checkpoint failure for CheckpointErr.
func (w *WAL) noteCheckpointErr(err error) { w.lastCheckpointErr.Store(&err) }

// CheckpointErr returns the most recent checkpoint failure, or nil.
func (w *WAL) CheckpointErr() error {
	if p := w.lastCheckpointErr.Load(); p != nil {
		return *p
	}
	return nil
}

// AttachWAL opens (or creates) the write-ahead log for the named base table
// in dir, replays any logged state into the table — checkpoint first, then
// segment records, truncating a torn or corrupt tail at the last valid
// record — and registers the log so every subsequent ApplyBatch appends to it
// before mutating. The table must be in its freshly-built (pre-ingest) state;
// replay reconstructs the pre-crash rows, samples, indexes, and versions
// bit-identically on top of it.
func (db *DB) AttachWAL(table, dir string, cfg WALConfig) (*WAL, WALReplayStats, error) {
	var stats WALReplayStats
	t := db.Table(table)
	if t == nil {
		return nil, stats, fmt.Errorf("engine: AttachWAL: unknown table %q", table)
	}
	if t.SampleOf != nil {
		return nil, stats, fmt.Errorf("engine: AttachWAL: %q is a sample table", table)
	}
	if t.DataVersion() != 0 {
		return nil, stats, fmt.Errorf("engine: AttachWAL: table %q already at version %d (attach before ingest)", table, t.DataVersion())
	}
	if db.wal(table) != nil {
		return nil, stats, fmt.Errorf("engine: AttachWAL: table %q already has a WAL", table)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, stats, err
	}

	w := &WAL{
		dir: dir, table: table, baseRows: t.Rows, policy: cfg.Policy,
		segmentBytes: walSegmentBytes, checkpointSegments: walCheckpointSegments,
	}
	if err := w.loadOrInitMeta(t); err != nil {
		return nil, stats, err
	}
	if err := db.replayWAL(w, t, &stats); err != nil {
		return nil, stats, err
	}
	if err := w.openActive(t.DataVersion() + 1); err != nil {
		return nil, stats, err
	}
	stats.Version = t.DataVersion()

	db.mu.Lock()
	if db.wals == nil {
		db.wals = make(map[string]*WAL)
	}
	db.wals[table] = w
	db.mu.Unlock()

	if w.policy == FsyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.syncLoop()
	}
	return w, stats, nil
}

// wal returns the attached WAL for a base table, or nil.
func (db *DB) wal(name string) *WAL {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.wals[name]
}

// loadOrInitMeta reads the on-disk WAL identity, or writes it for a fresh
// log. It rejects a directory that belongs to another table or whose replay
// baseline does not match the freshly-built table.
func (w *WAL) loadOrInitMeta(t *Table) error {
	path := filepath.Join(w.dir, walMetaFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		data, err = json.Marshal(walMeta{Table: w.table, BaseRows: w.baseRows})
		if err != nil {
			return err
		}
		if err := writeFileSync(path, data); err != nil {
			return err
		}
		return nil
	}
	if err != nil {
		return err
	}
	var meta walMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return fmt.Errorf("engine: wal meta %s: %w", path, err)
	}
	if meta.Table != w.table {
		return fmt.Errorf("engine: wal dir %s belongs to table %q, not %q", w.dir, meta.Table, w.table)
	}
	if meta.BaseRows != w.baseRows {
		return fmt.Errorf("engine: wal dir %s expects a %d-row base, table %q has %d (non-deterministic rebuild?)",
			w.dir, meta.BaseRows, w.table, w.baseRows)
	}
	return nil
}

// writeFileSync writes data to path durably: temp file, fsync, rename.
func writeFileSync(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// segmentFiles lists the WAL's segment paths sorted by their starting seq.
func (w *WAL) segmentFiles() ([]string, error) {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, err
	}
	type seg struct {
		path string
		seq  uint64
	}
	var segs []seg
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, walSegmentPrefix) || !strings.HasSuffix(name, walSegmentSuffix) {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, walSegmentPrefix), walSegmentSuffix)
		seq, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, seg{path: filepath.Join(w.dir, name), seq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	out := make([]string, len(segs))
	for i, s := range segs {
		out[i] = s.path
	}
	return out, nil
}

// segmentName renders the segment file name for a starting seq.
func (w *WAL) segmentName(seq uint64) string {
	return filepath.Join(w.dir, fmt.Sprintf("%s%016d%s", walSegmentPrefix, seq, walSegmentSuffix))
}

// openActive opens the segment new appends go to: the last existing segment
// (already truncated to its last valid record by replay), or a fresh one
// named after the next data version.
func (w *WAL) openActive(nextSeq uint64) error {
	segs, err := w.segmentFiles()
	if err != nil {
		return err
	}
	path := w.segmentName(nextSeq)
	if len(segs) > 0 {
		path = segs[len(segs)-1]
		w.sealed = segs[:len(segs)-1]
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	size, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return err
	}
	w.f, w.size = f, size
	return nil
}

// append frames, writes, and (per policy) syncs one record. The caller holds
// the owning DB's data write lock, which serializes appends and orders them
// by seq. A record is on disk before the in-memory state it describes exists,
// so an acknowledged flush is always recoverable.
func (w *WAL) append(seq uint64, at time.Time, b *Batch, vocab *Vocab) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("engine: wal for %q is closed", w.table)
	}
	frame := walFrame(encodeWALRecord(nil, seq, at, b, vocab))

	if w.size > 0 && w.size+int64(len(frame)) > w.segmentBytes {
		if err := w.rotateLocked(seq); err != nil {
			return err
		}
	}
	if _, err := w.f.Write(frame); err != nil {
		return err
	}
	w.size += int64(len(frame))
	w.appends.Add(1)
	if w.policy == FsyncAlways {
		if err := w.f.Sync(); err != nil {
			return err
		}
		w.syncs.Add(1)
	} else {
		w.dirty = true
	}
	return nil
}

// rotateLocked seals the active segment and starts a new one whose first
// record will be seq. Caller holds w.mu.
func (w *WAL) rotateLocked(seq uint64) error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.sealed = append(w.sealed, w.f.Name())
	f, err := os.OpenFile(w.segmentName(seq), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w.f, w.size, w.dirty = f, 0, false
	return nil
}

// syncLoop is the FsyncInterval background syncer.
func (w *WAL) syncLoop() {
	defer close(w.done)
	ticker := time.NewTicker(walSyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
			_ = w.Sync()
		}
	}
}

// Sync forces buffered appends to stable storage (a no-op when clean).
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || !w.dirty {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.dirty = false
	w.syncs.Add(1)
	return nil
}

// Close syncs and closes the active segment and stops the background syncer.
// Further appends fail; the owning server must stop ingest first.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.mu.Unlock()
	if w.stop != nil {
		close(w.stop)
		<-w.done
	}
	return err
}

// Stats snapshots the WAL's activity counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{
		Appends:     w.appends.Load(),
		Syncs:       w.syncs.Load(),
		Checkpoints: w.checkpoints.Load(),
		Segments:    len(w.sealed) + 1,
		ActiveBytes: w.size,
	}
}

// Dir returns the WAL's directory.
func (w *WAL) Dir() string { return w.dir }

// maybeCheckpoint compacts the log once enough sealed segments accumulate:
// it writes {version, every row appended since the base build}
// to the checkpoint file (durably, via rename) and deletes the sealed
// segments it supersedes. The caller holds the DB data read lock, so the
// table state it serializes is the exact state the newest record produced.
func (w *WAL) maybeCheckpoint(t *Table) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || len(w.sealed) <= w.checkpointSegments {
		return nil
	}
	frame := walFrame(encodeWALCheckpoint(nil, t, w.baseRows))
	if err := writeFileSync(filepath.Join(w.dir, walCheckpointFile), frame); err != nil {
		return err
	}
	for _, path := range w.sealed {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	w.sealed = nil
	w.checkpoints.Add(1)
	return nil
}

// --- record encoding ---------------------------------------------------

// encodeWALRecord serializes one applied flush: the data version it produced,
// the flush timestamp (passed back to ApplyBatch on replay), and the batch
// columns. Text cells are stored as word strings in id order; since token
// slices are id-sorted and ids are assigned densely in first-appearance
// order, re-interning the stored strings during replay reproduces the exact
// same vocabulary ids — the property that keeps replayed reads byte-identical.
func encodeWALRecord(buf []byte, seq uint64, at time.Time, b *Batch, vocab *Vocab) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(at.UnixNano()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.cols)))
	for _, c := range b.cols {
		buf = appendWALColumn(buf, c, 0, c.Len(), vocab)
	}
	return buf
}

// appendWALColumn serializes rows [from, to) of one column.
func appendWALColumn(buf []byte, c *Column, from, to int, vocab *Vocab) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(c.Name)))
	buf = append(buf, c.Name...)
	buf = append(buf, byte(c.Type))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(to-from))
	switch c.Type {
	case ColInt64, ColTime:
		for _, v := range c.Ints[from:to] {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	case ColFloat64:
		for _, v := range c.Floats[from:to] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	case ColPoint:
		for _, p := range c.Points[from:to] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Lon))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Lat))
		}
	case ColText:
		for _, ids := range c.Texts[from:to] {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(ids)))
			for _, id := range ids {
				if word := vocab.Word(id); word != "" {
					buf = binary.LittleEndian.AppendUint16(buf, uint16(len(word)))
					buf = append(buf, word...)
				} else {
					buf = binary.LittleEndian.AppendUint16(buf, walRawTokenMark)
					buf = binary.LittleEndian.AppendUint32(buf, id)
				}
			}
		}
	}
	return buf
}

// walDecoder is a bounds-checked cursor over a record payload.
type walDecoder struct {
	buf []byte
	off int
	err error
}

func (d *walDecoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("engine: wal record truncated at offset %d", d.off)
	}
}

func (d *walDecoder) u16() uint16 {
	if d.err != nil || d.off+2 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *walDecoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *walDecoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *walDecoder) byte() byte {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *walDecoder) bytes(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail()
		return nil
	}
	v := d.buf[d.off : d.off+n]
	d.off += n
	return v
}

// walMinRowBytes is the fewest bytes one row of a column type takes in a
// record: a count claiming more rows than the bytes left can hold is corrupt,
// and is rejected before it sizes an allocation.
func walMinRowBytes(typ ColType) int {
	switch typ {
	case ColText:
		return 2 // the row's token count
	case ColPoint:
		return 16
	}
	return 8
}

// walWords is what a decoded payload still has to intern: each word token's
// cell and word, in stored order, and every raw token id. Decoding fills it
// without touching the vocabulary; intern runs only once the whole payload
// has decoded, so a rejected payload leaves the vocabulary as it found it.
type walWords struct {
	cells []*uint32
	words []string
	raw   []uint32
}

// intern resolves the pending words into vocab, in stored order. A raw id is
// written only for a token with no word, and replay hands every word its old
// id back, so a raw id that would name a word once this payload's words are
// interned marks a corrupt payload; it is rejected before anything interns.
func (w *walWords) intern(vocab *Vocab) error {
	base := uint64(vocab.Len())
	fresh := make(map[string]bool)
	for _, word := range w.words {
		if vocab.ID(word) == 0 {
			fresh[word] = true
		}
	}
	for _, id := range w.raw {
		if vocab.Word(id) != "" || (uint64(id) > base && uint64(id) <= base+uint64(len(fresh))) {
			return fmt.Errorf("engine: wal raw token id %d names a word", id)
		}
	}
	for i, cell := range w.cells {
		*cell = vocab.Intern(w.words[i])
	}
	return nil
}

// decodeWALColumns decodes n serialized columns into a Batch, leaving the
// text columns' words in pending for the caller to intern.
func decodeWALColumns(d *walDecoder, n int, pending *walWords) (*Batch, error) {
	b := NewBatch()
	for i := 0; i < n; i++ {
		name := string(d.bytes(int(d.u16())))
		typ := ColType(d.byte())
		rows := int(d.u32())
		if d.err != nil {
			return nil, d.err
		}
		if left := len(d.buf) - d.off; rows > left/walMinRowBytes(typ) {
			return nil, fmt.Errorf("engine: wal column %q claims %d rows in %d bytes", name, rows, left)
		}
		c := &Column{Name: name, Type: typ}
		switch typ {
		case ColInt64, ColTime:
			c.Ints = make([]int64, rows)
			for r := 0; r < rows; r++ {
				c.Ints[r] = int64(d.u64())
			}
		case ColFloat64:
			c.Floats = make([]float64, rows)
			for r := 0; r < rows; r++ {
				c.Floats[r] = math.Float64frombits(d.u64())
			}
		case ColPoint:
			c.Points = make([]Point, rows)
			for r := 0; r < rows; r++ {
				c.Points[r] = Point{Lon: math.Float64frombits(d.u64()), Lat: math.Float64frombits(d.u64())}
			}
		case ColText:
			c.Texts = make([][]uint32, rows)
			for r := 0; r < rows; r++ {
				nw := int(d.u16())
				if nw > (len(d.buf)-d.off)/2 {
					return nil, fmt.Errorf("engine: wal text row claims %d tokens in %d bytes", nw, len(d.buf)-d.off)
				}
				ids := make([]uint32, nw)
				for j := range ids {
					n := d.u16()
					if n == walRawTokenMark {
						ids[j] = d.u32()
						pending.raw = append(pending.raw, ids[j])
						continue
					}
					word := string(d.bytes(int(n)))
					if d.err != nil {
						return nil, d.err
					}
					if word == "" {
						return nil, fmt.Errorf("engine: wal text token has an empty word")
					}
					pending.cells = append(pending.cells, &ids[j])
					pending.words = append(pending.words, word)
				}
				c.Texts[r] = ids
			}
		default:
			return nil, fmt.Errorf("engine: wal record has unknown column type %d", typ)
		}
		if d.err != nil {
			return nil, d.err
		}
		if err := b.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// decodeWALRecord decodes one record payload, interning its words into vocab
// only if the whole payload decodes.
func decodeWALRecord(payload []byte, vocab *Vocab) (seq uint64, at time.Time, b *Batch, err error) {
	d := &walDecoder{buf: payload}
	seq = d.u64()
	at = time.Unix(0, int64(d.u64()))
	ncols := int(d.u32())
	if d.err != nil {
		return 0, time.Time{}, nil, d.err
	}
	var pending walWords
	b, err = decodeWALColumns(d, ncols, &pending)
	if err != nil {
		return 0, time.Time{}, nil, err
	}
	if d.off != len(payload) {
		return 0, time.Time{}, nil, fmt.Errorf("engine: wal record has %d trailing bytes", len(payload)-d.off)
	}
	if err := pending.intern(vocab); err != nil {
		return 0, time.Time{}, nil, err
	}
	return seq, at, b, nil
}

// encodeWALCheckpoint serializes the table's full post-base state: current
// version and every row appended since the base build as one compacted
// batch. Applying that batch in one append on a fresh base yields the same
// rows, samples, and indexes as the original flush sequence (flush-boundary
// independence), and restoreVersion reinstates the version the compaction
// collapsed. Between the base row count and the columns sits a count of
// (version, flush time) stamps; the writer puts 0 there, and the decoder
// skips any stamps a checkpoint written by an older build carries.
func encodeWALCheckpoint(buf []byte, t *Table, baseRows int) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, t.DataVersion())
	buf = binary.LittleEndian.AppendUint64(buf, uint64(baseRows))
	buf = binary.LittleEndian.AppendUint32(buf, 0) // stamps
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Cols)))
	for _, c := range t.Cols {
		buf = appendWALColumn(buf, c, baseRows, t.Rows, t.Vocab)
	}
	return buf
}

// decodeWALCheckpoint decodes a checkpoint payload, interning its words into
// vocab only if the whole payload decodes.
func decodeWALCheckpoint(payload []byte, vocab *Vocab) (version uint64, baseRows int, b *Batch, err error) {
	d := &walDecoder{buf: payload}
	version = d.u64()
	baseRows = int(d.u64())
	d.bytes(16 * int(d.u32())) // stamps: 8-byte version, 8-byte flush time
	ncols := int(d.u32())
	if d.err != nil {
		return 0, 0, nil, d.err
	}
	var pending walWords
	b, err = decodeWALColumns(d, ncols, &pending)
	if err != nil {
		return 0, 0, nil, err
	}
	if d.off != len(payload) {
		return 0, 0, nil, fmt.Errorf("engine: wal checkpoint has %d trailing bytes", len(payload)-d.off)
	}
	if err := pending.intern(vocab); err != nil {
		return 0, 0, nil, err
	}
	return version, baseRows, b, nil
}

// --- replay -------------------------------------------------------------

// replayWAL reconstructs the pre-crash state: the checkpoint (if any) first,
// then every segment record newer than the table's current version, in seq
// order. A torn frame, CRC mismatch, or zero-length tail truncates the
// containing segment at the last valid record and drops any later segments —
// a partial flush is never surfaced.
func (db *DB) replayWAL(w *WAL, t *Table, stats *WALReplayStats) error {
	path := filepath.Join(w.dir, walCheckpointFile)
	if frame, err := os.ReadFile(path); err == nil {
		payload, _, ok := splitWALFrame(frame)
		if !ok || len(payload) != len(frame)-8 {
			return fmt.Errorf("engine: wal checkpoint %s is corrupt", path)
		}
		version, baseRows, b, err := decodeWALCheckpoint(payload, t.Vocab)
		if err != nil {
			return fmt.Errorf("engine: wal checkpoint %s: %w", path, err)
		}
		if baseRows != w.baseRows {
			return fmt.Errorf("engine: wal checkpoint %s expects a %d-row base, have %d", path, baseRows, w.baseRows)
		}
		if b.Rows() > 0 {
			if err := db.applyRestore(t, b); err != nil {
				return fmt.Errorf("engine: wal checkpoint %s: %w", path, err)
			}
		}
		db.dataMu.Lock()
		t.restoreVersion(version)
		db.dataMu.Unlock()
		stats.Checkpoint = true
		stats.CheckpointRows = b.Rows()
	} else if !os.IsNotExist(err) {
		return err
	}

	segs, err := w.segmentFiles()
	if err != nil {
		return err
	}
	for i, path := range segs {
		ok, err := db.replaySegment(w, t, path, stats)
		if err != nil {
			return err
		}
		if !ok {
			// Corrupt tail: everything after it is unordered garbage.
			for _, later := range segs[i+1:] {
				if err := os.Remove(later); err != nil {
					return err
				}
			}
			stats.Truncated = true
			break
		}
	}
	return nil
}

// walFrame wraps a record or checkpoint payload in its [len][crc] header.
func walFrame(payload []byte) []byte {
	frame := make([]byte, 0, len(payload)+8)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// splitWALFrame splits one [len][crc][payload] frame off buf, verifying the
// CRC. ok is false when the frame is torn, zero-length, or corrupt.
func splitWALFrame(buf []byte) (payload, rest []byte, ok bool) {
	if len(buf) < 8 {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint32(buf)
	crc := binary.LittleEndian.Uint32(buf[4:])
	if n == 0 || n > walMaxRecordBytes || int64(len(buf)-8) < int64(n) {
		return nil, nil, false
	}
	payload = buf[8 : 8+n]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, nil, false
	}
	return payload, buf[8+n:], true
}

// replaySegment replays one segment file, applying records newer than the
// table's current version and skipping older ones (double-replay
// idempotence). It returns ok=false after truncating the file at the first
// invalid frame.
func (db *DB) replaySegment(w *WAL, t *Table, path string, stats *WALReplayStats) (ok bool, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	valid := 0
	rest := buf
	for len(rest) > 0 {
		payload, next, okf := splitWALFrame(rest)
		if !okf {
			if err := os.Truncate(path, int64(valid)); err != nil {
				return false, err
			}
			return false, nil
		}
		seq, at, b, derr := decodeWALRecord(payload, t.Vocab)
		if derr != nil {
			// Framed and checksummed but undecodable: same treatment as a
			// corrupt frame.
			if err := os.Truncate(path, int64(valid)); err != nil {
				return false, err
			}
			return false, nil
		}
		if seq > t.DataVersion() {
			v, err := db.applyBatch(t.Name, b, at, false)
			if err != nil {
				return false, fmt.Errorf("engine: wal replay %s: %w", path, err)
			}
			if v != seq {
				return false, fmt.Errorf("engine: wal replay %s: record seq %d applied as version %d", path, seq, v)
			}
			stats.Records++
			stats.Rows += b.Rows()
		}
		valid = len(buf) - len(next)
		rest = next
	}
	return true, nil
}

// applyRestore applies a checkpoint's compacted batch without version bumps
// or flush hooks: rows, samples, and indexes advance exactly as the original
// flush sequence advanced them, and restoreVersion reinstates the version
// state afterwards.
func (db *DB) applyRestore(t *Table, b *Batch) error {
	db.dataMu.Lock()
	defer db.dataMu.Unlock()
	if err := t.appendBatch(b); err != nil {
		return err
	}
	db.mu.Lock()
	delete(db.stats, t.Name)
	for _, s := range t.Samples {
		delete(db.stats, s.Name)
	}
	db.mu.Unlock()
	return nil
}
