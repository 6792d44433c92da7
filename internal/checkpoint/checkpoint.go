// Package checkpoint provides the solve pipeline's durable state snapshots:
// a Checkpoint captures the persistent per-step state of a run — step
// number, simulation time and the field data that carries across steps — in
// a CRC-validated binary encoding usable both in memory (rollback after a
// failed step) and on disk (restart after a process death).
//
// The package is deliberately free of solver/driver dependencies: fields
// are keyed by small integer IDs (the driver's FieldID values), so the
// encoding is stable even as the kernel contract evolves.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// magic identifies the checkpoint container and its version. Bump the
// trailing digit on any incompatible layout change.
var magic = [8]byte{'T', 'L', 'C', 'K', 'P', 'T', '0', '1'}

// castagnoli is the CRC-32C table; hardware-accelerated on all targets Go
// supports, so validation cost is negligible next to the field copies.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a checkpoint whose payload failed CRC or structural
// validation. A corrupt checkpoint must never be restored silently; callers
// fall back to the previous checkpoint or a cold start.
var ErrCorrupt = errors.New("checkpoint: corrupt or truncated data")

// FieldData is one saved field: the driver's FieldID and the field's
// interior cells in row-major order.
type FieldData struct {
	ID   int
	Data []float64
}

// Checkpoint is one recovery point of a run.
type Checkpoint struct {
	Step   int     // last completed step
	Time   float64 // simulation time after that step
	NX, NY int     // interior mesh extent the field data is shaped for
	Fields []FieldData
}

// Encode writes the checkpoint: magic, little-endian payload, CRC-32C of
// the payload.
func (c *Checkpoint) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	crc := crc32.New(castagnoli)
	out := io.MultiWriter(bw, crc)
	var scratch [8]byte
	putU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:], v)
		_, err := out.Write(scratch[:])
		return err
	}
	if err := putU64(uint64(c.Step)); err != nil {
		return err
	}
	if err := putU64(math.Float64bits(c.Time)); err != nil {
		return err
	}
	if err := putU64(uint64(c.NX)); err != nil {
		return err
	}
	if err := putU64(uint64(c.NY)); err != nil {
		return err
	}
	if err := putU64(uint64(len(c.Fields))); err != nil {
		return err
	}
	for _, f := range c.Fields {
		if err := putU64(uint64(f.ID)); err != nil {
			return err
		}
		if err := putU64(uint64(len(f.Data))); err != nil {
			return err
		}
		for _, v := range f.Data {
			if err := putU64(math.Float64bits(v)); err != nil {
				return err
			}
		}
	}
	binary.LittleEndian.PutUint32(scratch[:4], crc.Sum32())
	if _, err := bw.Write(scratch[:4]); err != nil {
		return err
	}
	return bw.Flush()
}

// Decode reads and validates a checkpoint written by Encode. Any structural
// or CRC mismatch returns an error wrapping ErrCorrupt.
func Decode(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	var head [8]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("%w: missing header: %v", ErrCorrupt, err)
	}
	if head != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, head[:])
	}
	crc := crc32.New(castagnoli)
	in := io.TeeReader(br, crc)
	var scratch [8]byte
	getU64 := func() (uint64, error) {
		if _, err := io.ReadFull(in, scratch[:]); err != nil {
			return 0, fmt.Errorf("%w: truncated payload: %v", ErrCorrupt, err)
		}
		return binary.LittleEndian.Uint64(scratch[:]), nil
	}
	c := &Checkpoint{}
	v, err := getU64()
	if err != nil {
		return nil, err
	}
	c.Step = int(v)
	if v, err = getU64(); err != nil {
		return nil, err
	}
	c.Time = math.Float64frombits(v)
	if v, err = getU64(); err != nil {
		return nil, err
	}
	c.NX = int(v)
	if v, err = getU64(); err != nil {
		return nil, err
	}
	c.NY = int(v)
	nfields, err := getU64()
	if err != nil {
		return nil, err
	}
	if c.Step < 0 || c.NX <= 0 || c.NY <= 0 || c.NX > math.MaxInt/c.NY || nfields > 64 {
		return nil, fmt.Errorf("%w: implausible header (step=%d mesh=%dx%d fields=%d)",
			ErrCorrupt, c.Step, c.NX, c.NY, nfields)
	}
	maxLen := uint64(c.NX) * uint64(c.NY)
	raw := make([]byte, 8*min(maxLen, decodeChunk))
	for i := uint64(0); i < nfields; i++ {
		id, err := getU64()
		if err != nil {
			return nil, err
		}
		n, err := getU64()
		if err != nil {
			return nil, err
		}
		if n > maxLen {
			return nil, fmt.Errorf("%w: field %d has %d cells for a %dx%d mesh",
				ErrCorrupt, id, n, c.NX, c.NY)
		}
		data, err := readCells(in, int(n), raw)
		if err != nil {
			return nil, err
		}
		c.Fields = append(c.Fields, FieldData{ID: int(id), Data: data})
	}
	sum := crc.Sum32()
	if _, err := io.ReadFull(br, scratch[:4]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrCorrupt, err)
	}
	if got := binary.LittleEndian.Uint32(scratch[:4]); got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, got, sum)
	}
	return c, nil
}

// decodeChunk is how many cells Decode reads at a time. A field's storage
// grows with the cells actually read, so a header claiming more cells than
// the file holds fails on the short read before any allocation much larger
// than the file.
const decodeChunk = 1 << 16

// readCells reads n little-endian float64 cells from in through raw, a
// scratch buffer of 8*min(n, decodeChunk) bytes or more.
func readCells(in io.Reader, n int, raw []byte) ([]float64, error) {
	data := make([]float64, 0, min(n, decodeChunk))
	for len(data) < n {
		buf := raw[:8*min(n-len(data), decodeChunk)]
		if _, err := io.ReadFull(in, buf); err != nil {
			return nil, fmt.Errorf("%w: truncated payload: %v", ErrCorrupt, err)
		}
		// Double the capacity when it runs out, up to n.
		data = slices.Grow(data, min(n-len(data), max(len(data), len(buf)/8)))
		for b := 0; b < len(buf); b += 8 {
			data = append(data, math.Float64frombits(binary.LittleEndian.Uint64(buf[b:])))
		}
	}
	return data, nil
}

// syncDir makes renames within dir durable by fsyncing the directory entry
// itself. An atomic rename alone survives a process crash but not a machine
// crash: until the directory is synced the filesystem may replay the rename
// out of its journal — or not. A package-level hook so tests can assert the
// sync path is exercised.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Save writes the checkpoint to path atomically AND durably: encode to a
// temp file in the same directory, fsync, rename, then fsync the directory
// so the rename itself survives a machine crash. A crash mid-save leaves
// either the old checkpoint or none — never a torn file that Decode would
// have to reject.
func (c *Checkpoint) Save(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := c.Encode(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	// The directory sync after the rename covers SaveRotate's preceding
	// path -> path.prev rotation too (same directory, earlier rename).
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("checkpoint: save: sync dir: %w", err)
	}
	return nil
}

// PrevPath returns the rotation partner of a checkpoint path: the location
// the previous generation is moved to by SaveRotate.
func PrevPath(path string) string { return path + ".prev" }

// SaveRotate writes the checkpoint to path, first rotating any existing
// file at path to PrevPath(path). The rotation means a checkpoint that is
// later found corrupt on disk — a torn write survived by the filesystem, a
// bit-flip at rest — still leaves one older generation to fall back to,
// which LoadLatest does automatically.
//
// The rotate+save window is guarded by an exclusive advisory lock on a
// sidecar ".lock" file, paired with the shared lock LoadLatest takes: a
// concurrent reader (the fleet coordinator verifying a checkpoint while a
// worker is still writing) always observes either the pre-rotation or the
// post-save state of the pair, never the instant where path does not exist.
func (c *Checkpoint) SaveRotate(path string) error {
	lk, err := acquireLock(path, true)
	if err != nil {
		return err
	}
	defer lk.release()
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, PrevPath(path)); err != nil {
			return fmt.Errorf("checkpoint: rotate: %w", err)
		}
	}
	return c.Save(path)
}

// LoadLatest loads the newest valid checkpoint of the rotation pair written
// by SaveRotate: path itself, falling back to PrevPath(path) when path is
// missing, truncated or fails CRC validation. It returns the checkpoint and
// the file it actually came from. When neither file yields a valid
// checkpoint the primary file's error is returned (wrapping os.ErrNotExist
// when it does not exist, ErrCorrupt when it failed validation).
//
// LoadLatest holds the rotation pair's shared advisory lock for the whole
// read-and-fallback sequence, so a SaveRotate racing it cannot move the
// current generation to the ".prev" slot between the two Load attempts.
func LoadLatest(path string) (*Checkpoint, string, error) {
	lk, lerr := acquireLock(path, false)
	if lerr == nil {
		defer lk.release()
	}
	c, err := Load(path)
	if err == nil {
		return c, path, nil
	}
	prev := PrevPath(path)
	if c2, err2 := Load(prev); err2 == nil {
		return c2, prev, nil
	}
	return nil, "", err
}

// Load reads and validates the checkpoint at path.
func Load(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: load: %w", err)
	}
	defer f.Close()
	c, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: load %s: %w", path, err)
	}
	return c, nil
}
