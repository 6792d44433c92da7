package perfmodel

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Prediction sources, in decreasing order of trust.
const (
	// SourceFit marks a prediction backed by observed solve times for the
	// version at (or near) the requested problem size.
	SourceFit = "fit"
	// SourcePrior marks a cold-start prediction from the static Table II
	// machine models (or, for uncalibrated versions, the nominal
	// streaming rate).
	SourcePrior = "prior"
)

// ewmaAlpha weights a new observation against the running fit. 0.3 tracks
// drift (thermal state, co-tenancy) within a few jobs without letting one
// outlier rewrite the model.
const ewmaAlpha = 0.3

// defaultSecPerWork is the nominal cost of one cell-iteration when neither
// a fit nor a calibrated prior exists: 128 B/cell-iter over ~128 GB/s.
const defaultSecPerWork = 1e-9

// rateFloor and rateCeil clamp fitted rates so that a corrupt observation
// can never produce a zero, negative or absurd prediction.
const (
	rateFloor = 1e-15
	rateCeil  = 1e3
)

// Prediction is the predictor's answer for one (version, deck-size) query.
type Prediction struct {
	// Seconds is the predicted wall time; always finite and positive.
	Seconds float64
	// Source is SourceFit or SourcePrior.
	Source string
	// Samples counts the observations behind a fit (0 for priors).
	Samples int
}

// fit is one exponentially-weighted running estimate of seconds per work
// unit (cell-iterations) for a (version, size-bucket) pair.
type fit struct {
	secPerWork float64
	samples    int
}

// Predictor is a calibrated per-(version, deck-size) solve-time model. It
// fits seconds-per-cell-iteration online from completed jobs (Observe) and
// teabench -json trajectories (LoadBench*), bucketing by log2 of the cell
// count so small and large decks keep independent rates; queries fall back
// to the nearest fitted bucket of the same version and, cold, to the
// static machine models of machines.go. Unlike the rest of the package the
// Predictor is stateful: all methods are safe for concurrent use.
type Predictor struct {
	mu   sync.Mutex
	fits map[string]map[int]*fit // version -> log2(cells) bucket -> fit
}

// NewPredictor returns an empty predictor: every query answers from the
// static prior until observations arrive.
func NewPredictor() *Predictor {
	return &Predictor{fits: make(map[string]map[int]*fit)}
}

// workUnits is the predictor's work metric: cell-iterations. The per-step
// overhead outside the CG loop (bytesPerCellStep) is under 1% of a
// realistic step's traffic, so folding it into the rate loses nothing.
func workUnits(cells, iters int) float64 {
	return float64(cells) * float64(iters)
}

// sizeBucket maps a cell count to its log2 bucket.
func sizeBucket(cells int) int {
	return int(math.Round(math.Log2(float64(cells))))
}

// Observe folds one completed solve into the fit for (version, size).
// Non-positive or non-finite inputs are ignored; the return value reports
// whether the sample was accepted.
func (p *Predictor) Observe(version string, cells, iters int, seconds float64) bool {
	if version == "" || cells <= 0 || iters <= 0 {
		return false
	}
	if math.IsNaN(seconds) || math.IsInf(seconds, 0) || seconds <= 0 {
		return false
	}
	rate := seconds / workUnits(cells, iters)
	if rate < rateFloor {
		rate = rateFloor
	}
	if rate > rateCeil {
		rate = rateCeil
	}
	b := sizeBucket(cells)
	p.mu.Lock()
	defer p.mu.Unlock()
	byBucket := p.fits[version]
	if byBucket == nil {
		byBucket = make(map[int]*fit)
		p.fits[version] = byBucket
	}
	f := byBucket[b]
	if f == nil {
		byBucket[b] = &fit{secPerWork: rate, samples: 1}
		return true
	}
	f.secPerWork += ewmaAlpha * (rate - f.secPerWork)
	f.samples++
	return true
}

// Predict returns the modeled wall time for running a deck of the given
// cell count and total iteration count on the named version. The answer is
// always finite and positive: a fitted rate when one exists (exact bucket,
// else the nearest fitted bucket of the version), otherwise the static
// Table II prior.
func (p *Predictor) Predict(version string, cells, iters int) Prediction {
	if cells <= 0 {
		cells = 1
	}
	if iters <= 0 {
		iters = 1
	}
	if f, ok := p.lookup(version, sizeBucket(cells)); ok {
		return Prediction{
			Seconds: f.secPerWork * workUnits(cells, iters),
			Source:  SourceFit,
			Samples: f.samples,
		}
	}
	return Prediction{Seconds: priorSeconds(version, cells, iters), Source: SourcePrior}
}

// lookup finds the fit nearest to the wanted bucket (ties prefer the
// smaller problem, whose rate is the safer overestimate on a cold cache).
func (p *Predictor) lookup(version string, want int) (fit, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	byBucket := p.fits[version]
	if len(byBucket) == 0 {
		return fit{}, false
	}
	keys := make([]int, 0, len(byBucket))
	for b := range byBucket {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	bestB, bestDist := keys[0], math.MaxInt
	for _, b := range keys {
		d := b - want
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			bestB, bestDist = b, d
		}
	}
	return *byBucket[bestB], true
}

// priorMachines orders the calibration priors for cold-start fallback: the
// Xeon is the closest proxy for a generic multi-core host, the P100 covers
// the GPU-only versions, the KNL is last (retired hardware, see
// machines.go).
var priorMachines = []MachineID{Xeon, P100, KNL}

// priorSeconds prices a deck from the static machine models. Uncalibrated
// versions (and degenerate workloads) fall through to the nominal
// streaming rate, so the result is finite and positive for any input.
func priorSeconds(version string, cells, iters int) float64 {
	sec := defaultSecPerWork * workUnits(cells, iters)
	n := int(math.Sqrt(float64(cells)) + 0.5)
	if n < 1 {
		n = 1
	}
	w := Workload{N: n, Steps: 1, ItersPerStep: iters}
	for _, id := range priorMachines {
		if !Supported(version, id) {
			continue
		}
		m, err := MachineByID(id)
		if err != nil {
			continue
		}
		est, err := Time(version, m, w)
		if err != nil || math.IsNaN(est.Seconds) || est.Seconds <= 0 {
			continue
		}
		// Rescale from the squared-off n-by-n workload to the exact cell
		// count so rectangular decks are not mispriced by the rounding.
		sec = est.Seconds / workUnits(w.Cells(), w.ItersPerStep) * workUnits(cells, iters)
		break
	}
	if math.IsNaN(sec) || math.IsInf(sec, 0) || sec <= 0 {
		sec = defaultSecPerWork * workUnits(cells, iters)
	}
	return sec
}

// DeckWorkload translates a deck's mesh and step budget into the model's
// square workload: n is the edge of the equal-area square mesh, the step
// count is clamped to [1, 1000] (a deck driven purely by end_time carries
// the parser's default EndStep, which stays within the clamp).
func DeckWorkload(nx, ny, steps int) Workload {
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	n := int(math.Sqrt(float64(nx)*float64(ny)) + 0.5)
	if n < 1 {
		n = 1
	}
	if steps < 1 {
		steps = 1
	}
	if steps > 1000 {
		steps = 1000
	}
	return Workload{N: n, Steps: steps, ItersPerStep: EstimateItersPerStep(n)}
}

// Hints are model-derived tuning suggestions for one version.
type Hints struct {
	// BatchMaxCells caps micro-batch size so a batch stays under the
	// dispatch latency budget at the version's current fitted rate.
	BatchMaxCells int
	// AutoTile suggests cache-topology tile autosizing: set when the
	// version's per-work rate degrades from small to large problems
	// (a locality cliff that tiling flattens).
	AutoTile bool
	// BlockX, BlockY suggest the GPU launch block (0 when the version has
	// no device launch geometry). 64x8 is the paper's Section IV-D pick.
	BlockX, BlockY int
}

// batchTargetSeconds is the latency budget a micro-batch may occupy a
// worker for before head-of-line blocking outweighs the dispatch saving.
const batchTargetSeconds = 25e-3

// Hints derives tuning suggestions for a version from its current fits
// (or, cold, from the static prior).
func (p *Predictor) Hints(version string) Hints {
	h := Hints{BatchMaxCells: 1 << 10}
	for c := 1 << 10; c <= 1<<20; c <<= 1 {
		n := int(math.Sqrt(float64(c)) + 0.5)
		if p.Predict(version, c, EstimateItersPerStep(n)).Seconds > batchTargetSeconds {
			break
		}
		h.BatchMaxCells = c
	}
	small := p.Predict(version, smallN*smallN, EstimateItersPerStep(smallN))
	large := p.Predict(version, largeN*largeN, EstimateItersPerStep(largeN))
	rs := small.Seconds / workUnits(smallN*smallN, EstimateItersPerStep(smallN))
	rl := large.Seconds / workUnits(largeN*largeN, EstimateItersPerStep(largeN))
	h.AutoTile = rl > rs*1.1
	if gpuLaunchVersion(version) {
		h.BlockX, h.BlockY = 64, 8
	}
	return h
}

// gpuLaunchVersion reports whether a version dispatches device kernels
// with an explicit launch geometry (the CUDA and GPU-OpenACC ports).
func gpuLaunchVersion(version string) bool {
	byMachine, ok := calibration[version]
	if !ok {
		return false
	}
	_, onGPU := byMachine[P100]
	return onGPU
}

// benchFile is the teabench -json schema the predictor ingests:
// BENCH_portability.json's measured host wall times per version. Other
// artefacts decode to zero rows and are skipped.
type benchFile struct {
	Mesh  int `json:"mesh"`
	Steps int `json:"steps"`
	Host  []struct {
		Version     string  `json:"version"`
		WallSeconds float64 `json:"wall_seconds"`
		Iterations  int     `json:"iterations"`
	} `json:"host"`
}

// LoadBench seeds the predictor from one teabench -json artefact,
// returning the number of samples accepted.
func (p *Predictor) LoadBench(path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return 0, fmt.Errorf("perfmodel: %s: %w", path, err)
	}
	if bf.Mesh <= 0 {
		return 0, nil
	}
	cells := bf.Mesh * bf.Mesh
	n := 0
	for _, r := range bf.Host {
		if p.Observe(r.Version, cells, r.Iterations, r.WallSeconds) {
			n++
		}
	}
	return n, nil
}

// LoadBenchDir seeds the predictor from every BENCH_*.json under dir,
// skipping unreadable or unrecognised files. Returns samples accepted.
func (p *Predictor) LoadBenchDir(dir string) int {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return 0
	}
	sort.Strings(paths)
	total := 0
	for _, path := range paths {
		n, err := p.LoadBench(path)
		if err != nil {
			continue
		}
		total += n
	}
	return total
}
