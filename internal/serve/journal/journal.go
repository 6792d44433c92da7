// Package journal is teaserve's durable write-ahead job journal: an
// append-only log of job lifecycle records (submit, start, progress
// watermark, interrupt, finish) that survives a server crash and is replayed
// on the next start to reconstruct the job store and resume interrupted
// work.
//
// On disk the journal is a directory of numbered segment files
// ("seg-00000001.wal", ...). Each segment starts with an 8-byte magic and
// holds length-prefixed records: a 4-byte little-endian payload length, a
// 4-byte CRC-32C of the payload, then the JSON payload. The format is
// deliberately torn-tail tolerant: a crash mid-append leaves a truncated or
// CRC-failing tail, and replay simply stops reading that segment at the
// first bad frame — every fully fsynced record before it is intact. A new
// writer never appends after a torn tail; Open always starts a fresh
// segment, so one segment has at most one torn region, always at its end.
//
// Durability is group-commit: Append(rec, durable=true) returns only after
// an fsync that covers the record, but concurrent durable appends share one
// fsync — whichever appender syncs first covers everyone who appended
// before the sync.
//
// Replay is idempotent by job ID (callers merge all records of one job), so
// compaction is trivially crash-safe: CompactBefore writes a snapshot of the
// live state as a fresh segment (temp file, fsync, rename, directory fsync)
// and only then deletes the segments it replaces; a crash between the two
// leaves duplicate records that the merge collapses.
package journal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// segMagic identifies a journal segment and its format version.
var segMagic = [8]byte{'T', 'L', 'J', 'R', 'N', 'L', '0', '1'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record kinds. One job's life is a submit, zero or more start/progress/
// interrupt records, and at most one finish.
const (
	// KindSubmit records an accepted submission: the job's spec, sequence
	// number and resolved version. A job with no durable submit record was
	// never acknowledged to a client and is dropped on replay.
	KindSubmit = "submit"
	// KindStart records a dispatch attempt; Attempt is the 0-based attempt
	// number, so replay resumes budget accounting across restarts.
	KindStart = "start"
	// KindProgress is a step/event watermark, written without fsync — it
	// only tightens the SSE Last-Event-ID continuity point after a crash.
	KindProgress = "progress"
	// KindInterrupt marks a job interrupted by server shutdown. It is not
	// terminal: replay resumes interrupted jobs.
	KindInterrupt = "interrupt"
	// KindFinish is the terminal record (done, expired or failed).
	KindFinish = "finish"
)

// Record is one journal entry. Field names are compressed because a long
// solve writes one progress record per step.
type Record struct {
	Kind     string          `json:"k"`
	ID       string          `json:"id,omitempty"`
	Seq      int             `json:"seq,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"`
	Version  string          `json:"v,omitempty"`
	Attempt  int             `json:"att,omitempty"`
	Step     int             `json:"step,omitempty"`
	EventSeq int             `json:"ev,omitempty"`
	State    string          `json:"st,omitempty"`
	Result   json.RawMessage `json:"res,omitempty"`
	Error    string          `json:"err,omitempty"`
	Wall     time.Time       `json:"wall,omitempty"`
}

// maxRecordBytes bounds one frame. A bit flip in a length prefix must not
// make replay attempt a multi-gigabyte allocation; any frame claiming more
// than this is treated as a torn tail.
const maxRecordBytes = 8 << 20

// headerBytes is the per-record frame header: u32 length + u32 CRC-32C.
const headerBytes = 8

// Options tunes a Writer.
type Options struct {
	// SegmentBytes is the rotation threshold (<= 0: 1 MiB). The active
	// segment is sealed and a new one started when it grows past this.
	SegmentBytes int64
	// OnSync, when set, is called after every fsync batch (for metrics).
	OnSync func()
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes > 0 {
		return o.SegmentBytes
	}
	return 1 << 20
}

// Info summarises what Open replayed.
type Info struct {
	// Segments counts live segment files including the fresh active one.
	Segments int
	// Records is how many valid records replay recovered.
	Records int
	// Torn reports that at least one segment ended in a torn or corrupt
	// tail (expected after a crash mid-append; the valid prefix is kept).
	Torn bool
}

// Writer is an open journal. All methods are safe for concurrent use.
type Writer struct {
	dir string
	opt Options

	mu       sync.Mutex // guards the active segment and counters below
	f        *os.File
	seq      int   // active segment number
	size     int64 // bytes written to the active segment
	segments int   // live segment files including the active one
	appended uint64
	closed   bool

	syncMu sync.Mutex    // serialises fsync batches
	synced atomic.Uint64 // highest append covered by an fsync
}

// Open replays every segment in dir (creating it if needed), returns the
// recovered records in write order, and starts a fresh active segment for
// new appends. Corrupt or torn frames end replay of their segment — later
// segments still replay, since compaction may legitimately leave a newer
// snapshot segment after an older one that was being deleted when the
// process died.
func Open(dir string, opt Options) (*Writer, []Record, Info, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, Info{}, fmt.Errorf("journal: %w", err)
	}
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, nil, Info{}, err
	}
	// Temp files from a compaction the previous process died inside are
	// dead weight (the rename never happened); clear them.
	if ents, err := os.ReadDir(dir); err == nil {
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), ".compact-") {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	var recs []Record
	info := Info{}
	maxSeq := 0
	for _, seq := range seqs {
		if seq > maxSeq {
			maxSeq = seq
		}
		clean, n, err := readSegment(filepath.Join(dir, segName(seq)), func(r Record) {
			recs = append(recs, r)
		})
		if err != nil {
			return nil, nil, Info{}, err
		}
		info.Records += n
		if !clean {
			info.Torn = true
		}
	}
	w := &Writer{dir: dir, opt: opt, seq: maxSeq + 1, segments: len(seqs) + 1}
	f, err := w.createSegment(w.seq)
	if err != nil {
		return nil, nil, Info{}, err
	}
	w.f = f
	w.size = int64(len(segMagic))
	info.Segments = w.segments
	return w, recs, info, nil
}

// Append writes one record. With durable set it returns only after an fsync
// covers the record (sharing the fsync with concurrent appenders); without,
// the record reaches the OS page cache immediately (surviving a process
// kill) but not necessarily the disk. It returns the frame size in bytes.
func (w *Writer) Append(rec Record, durable bool) (int, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("journal: encode: %w", err)
	}
	if len(payload) > maxRecordBytes {
		return 0, fmt.Errorf("journal: record of %d bytes exceeds the %d-byte frame bound", len(payload), maxRecordBytes)
	}
	frame := make([]byte, headerBytes+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[headerBytes:], payload)

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, errors.New("journal: writer is closed")
	}
	if _, err := w.f.Write(frame); err != nil {
		w.mu.Unlock()
		return 0, fmt.Errorf("journal: append: %w", err)
	}
	w.size += int64(len(frame))
	w.appended++
	mySeq := w.appended
	if w.size >= w.opt.segmentBytes() {
		if err := w.rotateLocked(); err != nil {
			w.mu.Unlock()
			return len(frame), err
		}
	}
	w.mu.Unlock()

	if durable {
		if err := w.syncTo(mySeq); err != nil {
			return len(frame), err
		}
	}
	return len(frame), nil
}

// syncTo blocks until an fsync covers append number seq. Concurrent callers
// batch: the first through syncMu fsyncs everything appended so far, and
// waiters whose records that fsync covered return without another one.
func (w *Writer) syncTo(seq uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.synced.Load() >= seq {
		return nil
	}
	w.mu.Lock()
	f, cur := w.f, w.appended
	w.mu.Unlock()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	w.advanceSynced(cur)
	if w.opt.OnSync != nil {
		w.opt.OnSync()
	}
	return nil
}

// advanceSynced raises the synced watermark monotonically (rotation and
// syncTo both report coverage and must never move it backwards).
func (w *Writer) advanceSynced(to uint64) {
	for {
		old := w.synced.Load()
		if old >= to || w.synced.CompareAndSwap(old, to) {
			return
		}
	}
}

// rotateLocked seals the active segment (fsync, so a sealed segment is
// always fully durable) and opens the next one. Caller holds w.mu.
func (w *Writer) rotateLocked() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: seal: %w", err)
	}
	w.advanceSynced(w.appended)
	if w.opt.OnSync != nil {
		w.opt.OnSync()
	}
	w.f.Close()
	w.seq++
	f, err := w.createSegment(w.seq)
	if err != nil {
		return err
	}
	w.f = f
	w.size = int64(len(segMagic))
	w.segments++
	return nil
}

// createSegment creates and syncs a new segment file (and the directory
// entry, so the segment itself survives a machine crash).
func (w *Writer) createSegment(seq int) (*os.File, error) {
	path := filepath.Join(w.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: segment: %w", err)
	}
	if _, err := f.Write(segMagic[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: segment: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// ActiveSeq returns the active segment's number. A caller about to compact
// snapshots its state, then passes this value (captured first) to
// CompactBefore: records appended after the snapshot live in segments
// >= ActiveSeq and survive the compaction.
func (w *Writer) ActiveSeq() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Segments returns the live segment-file count.
func (w *Writer) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.segments
}

// CompactBefore replaces every segment numbered below beforeSeq with a
// single snapshot segment holding recs. The snapshot is written to a temp
// file, fsynced, renamed into place and the directory synced before any old
// segment is deleted, so a crash at any point leaves a replayable journal
// (at worst with duplicate records, which the per-job merge collapses).
func (w *Writer) CompactBefore(beforeSeq int, recs []Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("journal: writer is closed")
	}
	// Write the snapshot to a temp file first: a failure here leaves the
	// journal and the writer completely untouched.
	tmp, err := writeSnapshot(w.dir, recs)
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	// Seal the active segment: everything in it is durable before the old
	// segments it may duplicate are deleted.
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: seal: %w", err)
	}
	w.advanceSynced(w.appended)
	w.f.Close()
	// The snapshot takes the next segment number and the new active segment
	// the one after, so the active segment is always the highest-numbered
	// file — a later CompactBefore can never delete it.
	snapSeq := w.seq + 1
	if err := os.Rename(tmp, filepath.Join(w.dir, segName(snapSeq))); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		return err
	}
	w.seq = snapSeq + 1
	f, err := w.createSegment(w.seq)
	if err != nil {
		return err
	}
	w.f = f
	w.size = int64(len(segMagic))
	// The snapshot is durable; the old segments are now redundant.
	seqs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if seq < beforeSeq {
			if err := os.Remove(filepath.Join(w.dir, segName(seq))); err != nil {
				return fmt.Errorf("journal: compact: %w", err)
			}
		}
	}
	if err := syncDir(w.dir); err != nil {
		return err
	}
	seqs, err = listSegments(w.dir)
	if err != nil {
		return err
	}
	w.segments = len(seqs)
	return nil
}

// writeSnapshot encodes recs as a complete fsynced segment in a temp file
// and returns its path.
func writeSnapshot(dir string, recs []Record) (string, error) {
	tmp, err := os.CreateTemp(dir, ".compact-*")
	if err != nil {
		return "", fmt.Errorf("journal: compact: %w", err)
	}
	fail := func(err error) (string, error) {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("journal: compact: %w", err)
	}
	bw := bufio.NewWriter(tmp)
	if _, err := bw.Write(segMagic[:]); err != nil {
		return fail(err)
	}
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			return fail(err)
		}
		var h [headerBytes]byte
		binary.LittleEndian.PutUint32(h[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(h[4:8], crc32.Checksum(payload, castagnoli))
		if _, err := bw.Write(h[:]); err != nil {
			return fail(err)
		}
		if _, err := bw.Write(payload); err != nil {
			return fail(err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("journal: compact: %w", err)
	}
	return tmp.Name(), nil
}

// Close fsyncs and closes the active segment.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("journal: close: %w", err)
	}
	return w.f.Close()
}

// segName formats a segment number as its file name.
func segName(seq int) string { return fmt.Sprintf("seg-%08d.wal", seq) }

// segSeq parses a segment file name; ok is false for anything else.
func segSeq(name string) (int, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"))
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// listSegments returns the segment numbers present in dir, ascending.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var seqs []int
	for _, e := range ents {
		if seq, ok := segSeq(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// readSegment replays one segment, calling fn for each valid record. It
// returns clean=false when the segment ends in a torn or corrupt tail (bad
// magic, truncated frame, implausible length, CRC or JSON failure) — replay
// stops there, keeping the valid prefix; it never panics on any byte
// sequence. A real I/O error (not corruption) is returned as err.
func readSegment(path string, fn func(Record)) (clean bool, n int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var head [8]byte
	if _, err := io.ReadFull(br, head[:]); err != nil || head != segMagic {
		return false, 0, nil
	}
	var hdr [headerBytes]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return errors.Is(err, io.EOF), n, nil
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > maxRecordBytes {
			return false, n, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			return false, n, nil
		}
		if crc32.Checksum(payload, castagnoli) != want {
			return false, n, nil
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return false, n, nil
		}
		fn(rec)
		n++
	}
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: sync dir: %w", err)
	}
	return nil
}
