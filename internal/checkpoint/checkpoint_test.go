package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func sample() *Checkpoint {
	data := make([]float64, 12)
	for i := range data {
		data[i] = float64(i) * 1.5
	}
	data[3] = math.Inf(1) // bit-exact round-trip must survive non-finite values
	return &Checkpoint{
		Step: 7, Time: 0.7, NX: 4, NY: 3,
		Fields: []FieldData{{ID: 1, Data: data}},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := sample()
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != c.Step || got.Time != c.Time || got.NX != c.NX || got.NY != c.NY {
		t.Fatalf("header mismatch: %+v vs %+v", got, c)
	}
	if len(got.Fields) != 1 || got.Fields[0].ID != 1 {
		t.Fatalf("fields mismatch: %+v", got.Fields)
	}
	for i, v := range got.Fields[0].Data {
		if math.Float64bits(v) != math.Float64bits(c.Fields[0].Data[i]) {
			t.Fatalf("cell %d not bit-exact: %v vs %v", i, v, c.Fields[0].Data[i])
		}
	}
}

// TestDecodeRejectsCorruption flips every byte position in turn and demands
// Decode reject each mutated stream — the CRC (or a structural check) must
// catch single-byte corruption anywhere in the file.
func TestDecodeRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	for i := range clean {
		mutated := append([]byte(nil), clean...)
		mutated[i] ^= 0x40
		if _, err := Decode(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("Decode accepted a stream with byte %d corrupted", i)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d: error %v does not wrap ErrCorrupt", i, err)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	for _, n := range []int{0, 4, 8, 20, len(clean) - 1} {
		if _, err := Decode(bytes.NewReader(clean[:n])); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
}

// hugeHeader is a 64-byte file whose header claims a 2^31 x 2^31 mesh and a
// 2^61-cell field, then ends: Decode must report it corrupt without sizing
// anything by the claim.
func hugeHeader() []byte {
	var b []byte
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	b = append(b, magic[:]...)
	for _, v := range []uint64{1, math.Float64bits(0.5), 1 << 31, 1 << 31, 1, 0, 1 << 61} {
		u64(v)
	}
	return b
}

func TestDecodeRejectsHugeHeader(t *testing.T) {
	if _, err := Decode(bytes.NewReader(hugeHeader())); !errors.Is(err, ErrCorrupt) {
		t.Errorf("2^61-cell field in a 64-byte file: err = %v, want ErrCorrupt", err)
	}
	// A mesh whose cell count overflows int is implausible on its face.
	b := hugeHeader()
	binary.LittleEndian.PutUint64(b[24:], 1<<40)
	binary.LittleEndian.PutUint64(b[32:], 1<<40)
	if _, err := Decode(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("2^40 x 2^40 mesh: err = %v, want ErrCorrupt", err)
	}
}

// TestDecodeLargeField round-trips a field several read chunks long and
// rejects it cut short inside its last chunk.
func TestDecodeLargeField(t *testing.T) {
	n := 3*decodeChunk + 5
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i) / 7
	}
	c := &Checkpoint{Step: 2, Time: 0.25, NX: n, NY: 1, Fields: []FieldData{{ID: 3, Data: data}, {ID: 4, Data: data[:9]}}}
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for k, f := range c.Fields {
		if !slices.Equal(got.Fields[k].Data, f.Data) || got.Fields[k].ID != f.ID {
			t.Fatalf("field %d did not round-trip", f.ID)
		}
	}
	if _, err := Decode(bytes.NewReader(buf.Bytes()[:buf.Len()-100])); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated large field: err = %v, want ErrCorrupt", err)
	}
}

// FuzzDecode: no input makes Decode panic or fail without ErrCorrupt, and an
// accepted input re-encodes to its own bytes.
func FuzzDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := sample().Encode(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(hugeHeader())
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := Decode(bytes.NewReader(b))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		var out bytes.Buffer
		if err := c.Encode(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, out.Bytes()) {
			t.Fatalf("decoded checkpoint re-encodes to different bytes")
		}
	})
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	c := sample()
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != c.Step || len(got.Fields) != len(c.Fields) {
		t.Fatalf("loaded %+v, want %+v", got, c)
	}
	// Atomic save leaves no temp litter.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries after Save, want 1", len(entries))
	}
}

func TestSaveRotateKeepsPreviousGeneration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	first := sample()
	if err := first.SaveRotate(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(PrevPath(path)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("first SaveRotate created a .prev (stat err %v)", err)
	}
	second := sample()
	second.Step = 8
	if err := second.SaveRotate(path); err != nil {
		t.Fatal(err)
	}
	cur, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := Load(PrevPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if cur.Step != 8 || prev.Step != 7 {
		t.Errorf("rotation: primary step %d (want 8), prev step %d (want 7)", cur.Step, prev.Step)
	}
}

// TestLoadLatestFallsBack: a primary checkpoint corrupted at rest (one
// flipped byte on disk) must not cost the run its history — LoadLatest
// serves the rotated previous generation instead.
func TestLoadLatestFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	a := sample()
	if err := a.SaveRotate(path); err != nil {
		t.Fatal(err)
	}
	b := sample()
	b.Step = 8
	if err := b.SaveRotate(path); err != nil {
		t.Fatal(err)
	}

	// Healthy primary wins.
	ck, from, err := LoadLatest(path)
	if err != nil || ck.Step != 8 || from != path {
		t.Fatalf("healthy LoadLatest = step %v from %q, err %v", ck, from, err)
	}

	// Flip one byte mid-file: CRC rejects the primary, .prev serves.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, from, err = LoadLatest(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Step != 7 || from != PrevPath(path) {
		t.Errorf("fallback served step %d from %q, want step 7 from %q", ck.Step, from, PrevPath(path))
	}

	// Truncate the primary instead: same fallback.
	if err := os.WriteFile(path, raw[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if ck, _, err = LoadLatest(path); err != nil || ck.Step != 7 {
		t.Errorf("truncated primary: got step %v, err %v", ck, err)
	}

	// Both generations corrupt: the primary's typed error surfaces.
	if err := os.WriteFile(PrevPath(path), raw[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err = LoadLatest(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("both corrupt: err = %v, want ErrCorrupt", err)
	}
}

func TestLoadLatestMissingPrimaryUsesPrev(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := sample().Save(PrevPath(path)); err != nil {
		t.Fatal(err)
	}
	ck, from, err := LoadLatest(path)
	if err != nil || ck.Step != 7 || from != PrevPath(path) {
		t.Fatalf("missing primary: got %v from %q, err %v", ck, from, err)
	}

	// Neither file: os.ErrNotExist must surface so resume treats it as a
	// cold start.
	if _, _, err := LoadLatest(filepath.Join(t.TempDir(), "none.ckpt")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("no files: err = %v, want ErrNotExist", err)
	}
}
