package par

import (
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestParseCacheSize(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int
		ok   bool
	}{
		{"32K", 32 << 10, true},
		{"1024K", 1 << 20, true},
		{"8M", 8 << 20, true},
		{"1G", 1 << 30, true},
		{"512", 512, true},
		{"48k", 48 << 10, true},
		{"", 0, false},
		{"abc", 0, false},
		{"-4K", 0, false},
		{"0", 0, false},
	} {
		got, ok := parseCacheSize(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("parseCacheSize(%q) = %d,%v, want %d,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestCountCPUList(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int
	}{
		{"0-3,8-11", 8},
		{"0", 1},
		{"0-7", 8},
		{"0,2,4", 3},
		{"", 0},
		{"junk", 0},
		{"3-1", 0}, // inverted range contributes nothing
	} {
		if got := countCPUList(c.in); got != c.want {
			t.Errorf("countCPUList(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// writeCacheIndex lays out one sysfs cache index directory.
func writeCacheIndex(t *testing.T, dir, name, level, typ, size, shared string) {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.MkdirAll(p, 0o755); err != nil {
		t.Fatal(err)
	}
	for file, content := range map[string]string{
		"level": level, "type": typ, "size": size, "shared_cpu_list": shared,
	} {
		if err := os.WriteFile(filepath.Join(p, file), []byte(content+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReadSysfsTopology(t *testing.T) {
	dir := t.TempDir()
	writeCacheIndex(t, dir, "index0", "1", "Data", "48K", "0-1")
	writeCacheIndex(t, dir, "index1", "1", "Instruction", "32K", "0-1")
	writeCacheIndex(t, dir, "index2", "2", "Unified", "1280K", "0-1")
	writeCacheIndex(t, dir, "index3", "3", "Unified", "24M", "0-15")
	top := readSysfsTopology(dir)
	if top.L1D != 48<<10 {
		t.Errorf("L1D = %d, want 48K", top.L1D)
	}
	if top.L2 != 1280<<10 {
		t.Errorf("L2 = %d, want 1280K", top.L2)
	}
	if top.LLC != 24<<20 {
		t.Errorf("LLC = %d, want 24M", top.LLC)
	}
	if top.LLCShared != 16 {
		t.Errorf("LLCShared = %d, want 16", top.LLCShared)
	}
}

func TestReadSysfsTopologyMissingDir(t *testing.T) {
	top := readSysfsTopology(filepath.Join(t.TempDir(), "nope"))
	if top.L1D != 0 || top.L2 != 0 || top.LLC != 0 {
		t.Errorf("missing sysfs dir should detect nothing, got %+v", top)
	}
	// The accessors substitute the portable defaults.
	if top.L1DSize() != fallbackL1D || top.L2Size() != fallbackL2 || top.LLCSize() != fallbackLLC {
		t.Errorf("fallback sizes wrong: %d %d %d", top.L1DSize(), top.L2Size(), top.LLCSize())
	}
}

func TestAutoTileBounds(t *testing.T) {
	top := Topology{L2: 1 << 20}
	for _, c := range []struct{ nx, ny, bpc int }{
		{2048, 2048, 48}, {64, 64, 8}, {1, 1, 8}, {500, 500, 0}, {300, 4, 96},
	} {
		tx, ty := top.AutoTile(c.nx, c.ny, c.bpc)
		if tx < 1 || ty < 1 {
			t.Fatalf("AutoTile(%d,%d,%d) = %dx%d: degenerate", c.nx, c.ny, c.bpc, tx, ty)
		}
		if tx > 256 || tx > max(c.nx, 1) {
			t.Errorf("AutoTile(%d,%d,%d) tileX = %d exceeds caps", c.nx, c.ny, c.bpc, tx)
		}
		if ty > c.ny && c.ny > 0 && ty != 1 {
			t.Errorf("AutoTile(%d,%d,%d) tileY = %d exceeds block", c.nx, c.ny, c.bpc, ty)
		}
		if ty >= 8 && ty%4 != 0 {
			t.Errorf("AutoTile(%d,%d,%d) tileY = %d not 4-aligned", c.nx, c.ny, c.bpc, ty)
		}
		bpc := c.bpc
		if bpc <= 0 {
			bpc = 8
		}
		// The tile working set must not exceed the L2 budget unless clamps
		// forced the minimum shape.
		if tx*ty*bpc > top.L2Size()/2 && ty > 4 {
			t.Errorf("AutoTile(%d,%d,%d) = %dx%d: working set %d over budget",
				c.nx, c.ny, c.bpc, tx, ty, tx*ty*bpc)
		}
	}
}

// TestStaticRangeAlignedPartition: for any extent, thread count and
// alignment, the aligned shares must partition [lo,hi) exactly, in order,
// with every interior boundary on an alignment multiple.
func TestStaticRangeAlignedPartition(t *testing.T) {
	f := func(loSeed, nSeed, threadsSeed, alignSeed uint8) bool {
		lo := int(loSeed%37) - 18
		n := int(nSeed % 200)
		hi := lo + n
		nthreads := 1 + int(threadsSeed%8)
		align := int(alignSeed % 20)
		prev := lo
		for th := 0; th < nthreads; th++ {
			from, to := StaticRangeAligned(lo, hi, th, nthreads, align)
			if from != prev || to < from || to > hi {
				return false
			}
			if align > 1 && to != hi && to != from {
				blocks := (n + align - 1) / align
				if blocks >= nthreads && (to-lo)%align != 0 {
					return false
				}
			}
			prev = to
		}
		return prev == hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestStaticRangeAlignedFallback: fewer blocks than threads must fall back
// to the exact split so no thread idles.
func TestStaticRangeAlignedFallback(t *testing.T) {
	const lo, hi, nthreads, align = 0, 10, 8, 16
	busy := 0
	for th := 0; th < nthreads; th++ {
		from, to := StaticRangeAligned(lo, hi, th, nthreads, align)
		ef, et := StaticRange(lo, hi, th, nthreads)
		if from != ef || to != et {
			t.Errorf("thread %d: aligned (%d,%d) != exact (%d,%d)", th, from, to, ef, et)
		}
		if to > from {
			busy++
		}
	}
	if busy < 8 {
		t.Errorf("only %d of 8 threads got work; alignment must never cut parallelism", busy)
	}
}

func TestTeamShareAlign(t *testing.T) {
	team := NewTeam(3)
	defer team.Close()
	const n = 100
	// starts runs a static loop and returns where each share began, checking
	// that the shares cover every index exactly once.
	starts := func() []int {
		var mu sync.Mutex
		var from []int
		seen := make([]int, n)
		team.For(0, n, func(lo, hi int) {
			mu.Lock()
			from = append(from, lo)
			mu.Unlock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("index %d visited %d times", i, c)
			}
		}
		slices.Sort(from)
		return from
	}
	if got := starts(); !slices.Equal(got, []int{0, 34, 67}) {
		t.Errorf("default shares start at %v, want the unaligned static split", got)
	}
	team.SetShareAlign(8)
	if got := starts(); !slices.Equal(got, []int{0, 40, 72}) {
		t.Errorf("shares aligned to 8 start at %v, want [0 40 72]", got)
	}
	team.SetShareAlign(-3)
	if got := starts(); !slices.Equal(got, []int{0, 34, 67}) {
		t.Errorf("negative align must clamp to none: shares start at %v", got)
	}
}
