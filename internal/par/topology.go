package par

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Topology describes the cache hierarchy share assignment and tile picking
// work against. Sizes are bytes; zero fields were not detectable and the
// accessors substitute portable defaults.
type Topology struct {
	// L1D, L2 are the per-core (or per-core-cluster) data cache sizes.
	L1D, L2 int
	// LLC is the last-level cache size (typically shared).
	LLC int
	// LLCShared is how many logical CPUs share the LLC (0: unknown).
	LLCShared int
	// Cores is the logical CPU count tiles and shares are spread over.
	Cores int
}

// Portable fallbacks for hosts without a readable sysfs cache directory
// (non-Linux, restricted containers): a conservative modern x86 shape.
const (
	fallbackL1D = 32 << 10
	fallbackL2  = 1 << 20
	fallbackLLC = 32 << 20
)

// L1DSize returns the detected L1 data cache size or the fallback.
func (t Topology) L1DSize() int {
	if t.L1D > 0 {
		return t.L1D
	}
	return fallbackL1D
}

// L2Size returns the detected L2 size or the fallback.
func (t Topology) L2Size() int {
	if t.L2 > 0 {
		return t.L2
	}
	return fallbackL2
}

// LLCSize returns the detected last-level cache size or the fallback.
func (t Topology) LLCSize() int {
	if t.LLC > 0 {
		return t.LLC
	}
	return fallbackLLC
}

// AutoTile picks a tile extent for a loop chain over an nx-by-ny block
// touching bytesPerCell bytes of dat storage per cell: the largest tile
// whose chain working set fits in about half the private L2 (the other half
// is left to halo skew overlap, stacks and prefetch), clamped to the block.
// Row-major storage favours wide tiles, so X is capped first and Y carries
// the budget; Y is rounded to a multiple of 4 to match the 4-wide unrolled
// kernel bodies and share alignment.
func (t Topology) AutoTile(nx, ny, bytesPerCell int) (tileX, tileY int) {
	if bytesPerCell <= 0 {
		bytesPerCell = 8
	}
	cells := t.L2Size() / 2 / bytesPerCell
	if cells < 64 {
		cells = 64
	}
	tileX = nx
	if tileX > 256 {
		tileX = 256
	}
	if tileX < 1 {
		tileX = 1
	}
	tileY = cells / tileX
	if tileY > ny && ny > 0 {
		tileY = ny
	}
	if tileY >= 8 {
		tileY &^= 3 // multiple of 4
	}
	if tileY < 1 {
		tileY = 1
	}
	return tileX, tileY
}

var (
	topoOnce sync.Once
	topo     Topology
)

// DetectTopology reads the host cache hierarchy once (Linux sysfs,
// /sys/devices/system/cpu/cpu0/cache) and caches it; on hosts without
// sysfs every field is zero and the accessors fall back to portable
// defaults, so callers never branch on the platform.
func DetectTopology() Topology {
	topoOnce.Do(func() {
		topo = readSysfsTopology("/sys/devices/system/cpu/cpu0/cache")
		topo.Cores = runtime.NumCPU()
	})
	return topo
}

// readSysfsTopology parses the index* entries under dir. Split out (and
// parameterised on dir) for tests.
func readSysfsTopology(dir string) Topology {
	var t Topology
	entries, err := os.ReadDir(dir)
	if err != nil {
		return t
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "index") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	maxLevel := 0
	for _, name := range names {
		p := filepath.Join(dir, name)
		level, ok := readInt(filepath.Join(p, "level"))
		if !ok {
			continue
		}
		typ := readTrimmed(filepath.Join(p, "type"))
		size, ok := parseCacheSize(readTrimmed(filepath.Join(p, "size")))
		if !ok {
			continue
		}
		switch {
		case level == 1 && (typ == "Data" || typ == "Unified"):
			t.L1D = size
		case level == 2:
			t.L2 = size
		}
		if level > maxLevel {
			maxLevel = level
			t.LLC = size
			t.LLCShared = countCPUList(readTrimmed(filepath.Join(p, "shared_cpu_list")))
		}
	}
	return t
}

func readTrimmed(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

func readInt(path string) (int, bool) {
	v, err := strconv.Atoi(readTrimmed(path))
	if err != nil {
		return 0, false
	}
	return v, true
}

// parseCacheSize parses sysfs cache sizes like "32K", "1024K", "8M", "512".
func parseCacheSize(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	mult := 1
	switch s[len(s)-1] {
	case 'K', 'k':
		mult, s = 1<<10, s[:len(s)-1]
	case 'M', 'm':
		mult, s = 1<<20, s[:len(s)-1]
	case 'G', 'g':
		mult, s = 1<<30, s[:len(s)-1]
	}
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || v <= 0 {
		return 0, false
	}
	return v * mult, true
}

// countCPUList counts the CPUs in a sysfs cpu-list string like "0-3,8-11".
func countCPUList(s string) int {
	if s == "" {
		return 0
	}
	n := 0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 == nil && err2 == nil && b >= a {
				n += b - a + 1
			}
			continue
		}
		if _, err := strconv.Atoi(part); err == nil {
			n++
		}
	}
	return n
}

// StaticRangeAligned is StaticRange with share boundaries snapped to
// multiples of align rows from lo, so a thread's share starts and ends on
// tile-row boundaries and two threads never split a tile row's cache lines.
// When there are fewer align-blocks than threads the alignment would idle
// threads, so it falls back to the exact static split — alignment is a
// locality hint, never a parallelism cut.
func StaticRangeAligned(lo, hi, thread, nthreads, align int) (int, int) {
	n := hi - lo
	if n <= 0 {
		return lo, lo
	}
	if align <= 1 {
		return StaticRange(lo, hi, thread, nthreads)
	}
	blocks := (n + align - 1) / align
	if blocks < nthreads {
		return StaticRange(lo, hi, thread, nthreads)
	}
	b0, b1 := StaticRange(0, blocks, thread, nthreads)
	from := min(lo+b0*align, hi)
	to := min(lo+b1*align, hi)
	return from, to
}

// SetShareAlign makes For/ReduceSum static shares and ForGuided claims land
// on multiples of align iterations (tile rows), via StaticRangeAligned. 0 or 1 disables alignment. Like the loop methods it
// must only be called by the team's driving goroutine while the team is
// idle. Changing the alignment changes the share split and therefore the
// (deterministic) reduction combine grouping; ports that need bitwise
// stability across alignment settings must use order-canonical reductions
// (e.g. ops deferred per-row partials).
func (t *Team) SetShareAlign(align int) {
	if align < 0 {
		align = 0
	}
	t.align = align
}
