package comm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the fault model of the message-passing runtime: a pluggable,
// deterministic injector that can drop, delay or corrupt messages, stall a
// rank, or kill it mid-operation, plus the structured errors the recovery
// path in World.Run surfaces. Everything here is dormant until an injector
// or a collective deadline is installed: the steady-state Send/Recv/Barrier
// paths pay one nil-check and an integer increment, nothing more.

// Action is what the fault injector does to one communication operation.
type Action int

const (
	// ActNone lets the operation proceed untouched.
	ActNone Action = iota
	// ActDrop silently discards the message (sends only).
	ActDrop
	// ActDelay delays the operation by the schedule's delay duration.
	ActDelay
	// ActCorrupt poisons the message payload with NaNs (sends only).
	ActCorrupt
	// ActStall blocks the rank for the schedule's stall duration — long
	// enough to trip a collective watchdog on its peers.
	ActStall
	// ActKill panics the rank with ErrKilled, simulating a process death.
	ActKill
	// ActFlip XORs one bit of one payload element (sends) or of the rank's
	// staged reduction contribution (collectives): a deterministic *finite*
	// silent-data-corruption, unlike the NaN poisoning of ActCorrupt. The
	// bit, element index and stickiness come from the rule (see Rule.Bit).
	ActFlip
	// ActPartition severs the wire links touching a rank for the rule's
	// duration: established connections drop and redials fail, exercising
	// the socket transport's reconnect-and-replay path. Frame-level (see
	// FrameInjector); inert on the in-process transport.
	ActPartition
	// ActSlowlink delays matching wire frames with the rule's probability —
	// a continuously lossy-slow link rather than a one-shot fault. Frame
	// level; inert on the in-process transport.
	ActSlowlink
	// ActKillProc kills the matching rank like ActKill, but on a world
	// where process exits are enabled (a fleet worker) it exits the whole
	// OS process — a genuine death its supervisor must detect and migrate
	// around, not a recoverable in-process panic.
	ActKillProc
)

func (a Action) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActDrop:
		return "drop"
	case ActDelay:
		return "delay"
	case ActCorrupt:
		return "corrupt"
	case ActStall:
		return "stall"
	case ActKill:
		return "kill"
	case ActFlip:
		return "flip"
	case ActPartition:
		return "partition"
	case ActSlowlink:
		return "slowlink"
	case ActKillProc:
		return "killproc"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// FaultInjector decides, per communication operation, whether to perturb
// it. Implementations must be safe for concurrent use from all ranks and,
// for reproducible experiments, deterministic for a fixed schedule/seed.
type FaultInjector interface {
	// OnSend is consulted once per point-to-point send, on the sending
	// rank, with the rank's operation sequence number.
	OnSend(rank, dst, tag, op int) Action
	// OnCollective is consulted once per collective entry (barrier,
	// allreduce, broadcast).
	OnCollective(rank, op int) Action
}

// Sentinel errors of the resilience layer. RankError wraps one of these (or
// an arbitrary panic value) as its Cause.
var (
	// ErrKilled marks a rank killed by the fault injector.
	ErrKilled = errors.New("comm: rank killed by fault injector")
	// ErrWorldAborted marks a rank that failed only because another rank
	// failed first and the world was torn down under it.
	ErrWorldAborted = errors.New("comm: world aborted after another rank failed")
	// ErrCollectiveTimeout marks a collective or receive that exceeded the
	// world's collective deadline — the watchdog's signal that a peer rank
	// is dead or stalled rather than slow.
	ErrCollectiveTimeout = errors.New("comm: collective deadline exceeded")
	// ErrCorruption marks a CRC-32C mismatch on a received payload or a
	// reduction contribution that bounded retransmission could not repair —
	// silent data corruption caught before it folded into the physics.
	ErrCorruption = errors.New("comm: silent payload corruption detected")
)

// CorruptionError is the structured report of one detected-but-unrepaired
// corruption: which rank detected it, which rank's data failed its
// checksum, on which tag (-1 for a collective), and the CRC pair. It routes
// through the same RankError/rollback machinery as a crash: the detecting
// rank panics with it, World.Run wraps it, and the resilient driver rolls
// back to the last validated checkpoint.
type CorruptionError struct {
	Rank      int    // detecting rank
	Src       int    // rank whose payload/contribution failed validation
	Tag       int    // message tag, or -1 for a collective
	Op        int    // detecting rank's comm-operation sequence number
	Want, Got uint32 // stored and recomputed CRC-32C
}

func (e *CorruptionError) Error() string {
	if e.Tag < 0 {
		return fmt.Sprintf("comm: rank %d: contribution from rank %d failed CRC at op %d (stored %08x, computed %08x): %v",
			e.Rank, e.Src, e.Op, e.Want, e.Got, ErrCorruption)
	}
	return fmt.Sprintf("comm: rank %d: payload from rank %d tag %d failed CRC at op %d (stored %08x, computed %08x): %v",
		e.Rank, e.Src, e.Tag, e.Op, e.Want, e.Got, ErrCorruption)
}

// Unwrap exposes ErrCorruption to errors.Is chains.
func (e *CorruptionError) Unwrap() error { return ErrCorruption }

// RankError is the structured failure of one rank: which rank, at which of
// its communication operations (a per-rank sequence number over sends,
// receives and collectives), and the recovered cause.
type RankError struct {
	Rank  int
	Step  int // the rank's comm-operation sequence number at failure
	Cause any
}

func (e *RankError) Error() string {
	return fmt.Sprintf("comm: rank %d failed at op %d: %v", e.Rank, e.Step, e.Cause)
}

// Unwrap exposes an error Cause to errors.Is/As chains.
func (e *RankError) Unwrap() error {
	if err, ok := e.Cause.(error); ok {
		return err
	}
	return nil
}

// Rule is one entry of a fault Schedule. A rule fires when a matching rank
// reaches the given operation sequence number (Op > 0) — more precisely, at
// the rank's first injectable operation at or after that number, since the
// sequence also counts receives, which are perturbed only indirectly —
// or, when Op == 0, independently with probability Prob per matching
// operation, drawn from the schedule's seeded per-rank streams. Every rule
// fires at most once.
type Rule struct {
	Action Action
	Rank   int     // matching rank, or -1 for any
	Op     int     // exact op sequence number; 0 means probabilistic
	Tag    int     // matching send tag, or -1 for any (ignored for collectives)
	Prob   float64 // per-op firing probability when Op == 0

	// Flip shape, used only by ActFlip rules. Bit is the bit index XORed
	// into the targeted float64 (0 = LSB of the mantissa, 52 = low exponent
	// bit — a finite ×2/÷2 —, 63 = sign); Idx is the payload element index
	// (clamped to the payload, ignored for collectives); Sticky makes the
	// flip hit the retransmission copy too, so a checksummed receive cannot
	// repair it and must escalate to CorruptionError.
	Bit    int
	Idx    int
	Sticky bool

	// Dur is the partition window of an ActPartition rule (required) or the
	// per-frame delay of an ActSlowlink rule (default 2ms when zero). Unused
	// by the operation-level actions, whose delays come from Schedule.Delay.
	Dur time.Duration
}

// DefaultFlipBit is the bit a flip rule targets when the spec names none:
// the lowest exponent bit, which doubles or halves the value — a large,
// always-finite corruption that any invariant monitor worth its name must
// catch.
const DefaultFlipBit = 52

// flipSpec is the rank-local record of the flip shape the last matched
// ActFlip rule asked for.
type flipSpec struct {
	Bit    int
	Idx    int
	Sticky bool
}

// FlipBits XORs bit (0..63) into the IEEE-754 representation of x — the
// canonical single-event-upset model.
func FlipBits(x float64, bit int) float64 {
	return math.Float64frombits(math.Float64bits(x) ^ (1 << (uint(bit) & 63)))
}

// Schedule is the deterministic, seeded FaultInjector used by the chaos
// tests and the -fault-spec CLI flag. Probabilistic rules draw from
// independent per-rank streams derived from Seed, so a schedule replays
// identically for a fixed world size regardless of goroutine interleaving.
type Schedule struct {
	Rules []Rule
	Seed  int64
	// Delay and Stall are the durations ActDelay and ActStall insert;
	// zero values take the defaults (50µs and 50ms).
	Delay time.Duration
	Stall time.Duration

	mu        sync.Mutex
	fired     map[int]bool
	streams   map[int]*rand.Rand
	lastFlip  map[int]flipSpec  // per-rank shape of the last matched flip rule
	partSince map[int]time.Time // per-rule wall-clock start of an active partition
}

// NewSchedule builds an empty schedule with the given seed.
func NewSchedule(seed int64) *Schedule { return &Schedule{Seed: seed} }

func (s *Schedule) delay() time.Duration {
	if s.Delay > 0 {
		return s.Delay
	}
	return 50 * time.Microsecond
}

func (s *Schedule) stall() time.Duration {
	if s.Stall > 0 {
		return s.Stall
	}
	return 50 * time.Millisecond
}

// match returns the action of the first unfired matching rule, marking it
// fired. collective sends tag = -1.
func (s *Schedule) match(rank, tag, op int) Action {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, r := range s.Rules {
		if s.fired[i] {
			continue
		}
		// Frame-level rules act on the wire (OnFrame), never on the
		// operation path.
		if r.Action == ActPartition || r.Action == ActSlowlink {
			continue
		}
		if r.Rank >= 0 && r.Rank != rank {
			continue
		}
		if r.Tag >= 0 && tag >= 0 && r.Tag != tag {
			continue
		}
		if r.Op > 0 {
			if op < r.Op {
				continue
			}
		} else {
			if r.Prob <= 0 || s.stream(rank).Float64() >= r.Prob {
				continue
			}
		}
		if s.fired == nil {
			s.fired = make(map[int]bool)
		}
		s.fired[i] = true
		if r.Action == ActFlip {
			if s.lastFlip == nil {
				s.lastFlip = make(map[int]flipSpec)
			}
			s.lastFlip[rank] = flipSpec{Bit: r.Bit, Idx: r.Idx, Sticky: r.Sticky}
		}
		return r.Action
	}
	return ActNone
}

// flipFor returns the flip shape recorded for rank by the last matched
// ActFlip rule, or the default shape.
func (s *Schedule) flipFor(rank int) flipSpec {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fs, ok := s.lastFlip[rank]; ok {
		return fs
	}
	return flipSpec{Bit: DefaultFlipBit}
}

// stream returns rank's private random stream. Caller holds s.mu.
func (s *Schedule) stream(rank int) *rand.Rand {
	if s.streams == nil {
		s.streams = make(map[int]*rand.Rand)
	}
	r, ok := s.streams[rank]
	if !ok {
		r = rand.New(rand.NewSource(s.Seed*1_000_003 + int64(rank)))
		s.streams[rank] = r
	}
	return r
}

// OnSend implements FaultInjector.
func (s *Schedule) OnSend(rank, dst, tag, op int) Action { return s.match(rank, tag, op) }

// OnCollective implements FaultInjector.
func (s *Schedule) OnCollective(rank, op int) Action { return s.match(rank, -1, op) }

// FrameVerdict is a frame injector's decision about one wire frame.
type FrameVerdict struct {
	// Cut drops the connection carrying the frame (and fails redials while
	// the partition stays active); the transport's reconnect-and-replay
	// machinery is expected to deliver the frame eventually.
	Cut bool
	// Delay holds the frame back before it is written.
	Delay time.Duration
}

// FrameInjector perturbs individual wire frames of a socket transport —
// the layer below FaultInjector's operation-level faults. Implementations
// must be safe for concurrent use from every link's writer goroutine.
type FrameInjector interface {
	// OnFrame is consulted before each frame write and each dial attempt
	// from src towards dst (heartbeats included).
	OnFrame(src, dst int) FrameVerdict
}

// OnFrame implements FrameInjector: ActPartition rules cut every frame and
// dial touching the rule's rank for Dur from the first matching frame (then
// retire); ActSlowlink rules delay matching frames with probability Prob
// for as long as the schedule lives.
func (s *Schedule) OnFrame(src, dst int) FrameVerdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	var v FrameVerdict
	for i, r := range s.Rules {
		switch r.Action {
		case ActPartition:
			if s.fired[i] {
				continue
			}
			if r.Rank >= 0 && r.Rank != src && r.Rank != dst {
				continue
			}
			since, ok := s.partSince[i]
			if !ok {
				if s.partSince == nil {
					s.partSince = make(map[int]time.Time)
				}
				since = time.Now()
				s.partSince[i] = since
			}
			if time.Since(since) < r.Dur {
				v.Cut = true
			} else {
				if s.fired == nil {
					s.fired = make(map[int]bool)
				}
				s.fired[i] = true
			}
		case ActSlowlink:
			if r.Rank >= 0 && r.Rank != src && r.Rank != dst {
				continue
			}
			if r.Prob > 0 && s.stream(src).Float64() < r.Prob {
				d := r.Dur
				if d <= 0 {
					d = 2 * time.Millisecond
				}
				if d > v.Delay {
					v.Delay = d
				}
			}
		}
	}
	return v
}

// ParseSpec parses a fault specification string into a Schedule. The
// grammar is semicolon-separated clauses
//
//	action:key=value[,key=value...]
//
// with actions drop|delay|corrupt|stall|kill|flip|partition|slowlink|killproc
// and keys rank, op (step is an accepted alias), tag, prob, seed (seed
// applies to the whole schedule); flip additionally takes bit (0..63,
// default 52), idx (payload element, default 0) and sticky (0|1: corrupt
// the retransmission copy too). The transport-level actions take: partition
// rank and dur (required window, e.g. dur=2s); slowlink rank, prob
// (required) and delay (per-frame hold, default 2ms); killproc rank and
// op/step. partition and slowlink act on socket-transport frames and are
// inert in-process. Examples:
//
//	kill:rank=1,op=40
//	corrupt:rank=0,op=25;drop:prob=0.01,seed=7
//	flip:rank=1,op=30,bit=12
//	partition:rank=1,dur=2s
//	slowlink:prob=0.05,delay=5ms;killproc:rank=2,step=40
func ParseSpec(spec string) (*Schedule, error) {
	s := &Schedule{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, args, _ := strings.Cut(clause, ":")
		var act Action
		switch strings.TrimSpace(name) {
		case "drop":
			act = ActDrop
		case "delay":
			act = ActDelay
		case "corrupt":
			act = ActCorrupt
		case "stall":
			act = ActStall
		case "kill":
			act = ActKill
		case "flip":
			act = ActFlip
		case "partition":
			act = ActPartition
		case "slowlink":
			act = ActSlowlink
		case "killproc":
			act = ActKillProc
		default:
			return nil, fmt.Errorf("comm: fault spec: unknown action %q in %q", name, clause)
		}
		r := Rule{Action: act, Rank: -1, Tag: -1}
		if act == ActFlip {
			r.Bit = DefaultFlipBit
		}
		if args != "" {
			for _, kv := range strings.Split(args, ",") {
				key, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("comm: fault spec: malformed %q in %q", kv, clause)
				}
				switch strings.TrimSpace(key) {
				case "rank":
					n, err := strconv.Atoi(val)
					if err != nil {
						return nil, fmt.Errorf("comm: fault spec: bad rank %q: %w", val, err)
					}
					r.Rank = n
				case "op", "step":
					if act == ActPartition || act == ActSlowlink {
						return nil, fmt.Errorf("comm: fault spec: key %q does not apply to %v (frame-level action)", key, act)
					}
					n, err := strconv.Atoi(val)
					if err != nil || n <= 0 {
						return nil, fmt.Errorf("comm: fault spec: bad op %q (want positive integer)", val)
					}
					r.Op = n
				case "tag":
					if act == ActPartition || act == ActSlowlink || act == ActKillProc {
						return nil, fmt.Errorf("comm: fault spec: key %q does not apply to %v", key, act)
					}
					n, err := strconv.Atoi(val)
					if err != nil {
						return nil, fmt.Errorf("comm: fault spec: bad tag %q: %w", val, err)
					}
					r.Tag = n
				case "prob":
					if act == ActPartition || act == ActKillProc {
						return nil, fmt.Errorf("comm: fault spec: key %q does not apply to %v", key, act)
					}
					p, err := strconv.ParseFloat(val, 64)
					if err != nil || p < 0 || p > 1 {
						return nil, fmt.Errorf("comm: fault spec: bad prob %q (want [0,1])", val)
					}
					r.Prob = p
				case "dur":
					if act != ActPartition {
						return nil, fmt.Errorf("comm: fault spec: key %q only applies to partition, not %v", key, act)
					}
					d, err := time.ParseDuration(val)
					if err != nil || d <= 0 {
						return nil, fmt.Errorf("comm: fault spec: bad dur %q (want positive duration like 2s)", val)
					}
					r.Dur = d
				case "delay":
					if act != ActSlowlink {
						return nil, fmt.Errorf("comm: fault spec: key %q only applies to slowlink, not %v", key, act)
					}
					d, err := time.ParseDuration(val)
					if err != nil || d <= 0 {
						return nil, fmt.Errorf("comm: fault spec: bad delay %q (want positive duration like 5ms)", val)
					}
					r.Dur = d
				case "seed":
					n, err := strconv.ParseInt(val, 10, 64)
					if err != nil {
						return nil, fmt.Errorf("comm: fault spec: bad seed %q: %w", val, err)
					}
					s.Seed = n
				case "bit":
					if act != ActFlip {
						return nil, fmt.Errorf("comm: fault spec: key %q only applies to flip, not %v", key, act)
					}
					n, err := strconv.Atoi(val)
					if err != nil || n < 0 || n > 63 {
						return nil, fmt.Errorf("comm: fault spec: bad bit %q (want 0..63)", val)
					}
					r.Bit = n
				case "idx":
					if act != ActFlip {
						return nil, fmt.Errorf("comm: fault spec: key %q only applies to flip, not %v", key, act)
					}
					n, err := strconv.Atoi(val)
					if err != nil || n < 0 {
						return nil, fmt.Errorf("comm: fault spec: bad idx %q (want non-negative integer)", val)
					}
					r.Idx = n
				case "sticky":
					if act != ActFlip {
						return nil, fmt.Errorf("comm: fault spec: key %q only applies to flip, not %v", key, act)
					}
					switch strings.TrimSpace(val) {
					case "1", "true":
						r.Sticky = true
					case "0", "false":
						r.Sticky = false
					default:
						return nil, fmt.Errorf("comm: fault spec: bad sticky %q (want 0 or 1)", val)
					}
				default:
					return nil, fmt.Errorf("comm: fault spec: unknown key %q in %q", key, clause)
				}
			}
		}
		switch act {
		case ActPartition:
			if r.Dur <= 0 {
				return nil, fmt.Errorf("comm: fault spec: clause %q needs dur=D", clause)
			}
		case ActSlowlink:
			if r.Prob <= 0 {
				return nil, fmt.Errorf("comm: fault spec: clause %q needs prob=P", clause)
			}
		case ActKillProc:
			if r.Op <= 0 {
				return nil, fmt.Errorf("comm: fault spec: clause %q needs op=N (or step=N)", clause)
			}
		default:
			if r.Op == 0 && r.Prob == 0 {
				return nil, fmt.Errorf("comm: fault spec: clause %q needs op=N or prob=P", clause)
			}
		}
		s.Rules = append(s.Rules, r)
	}
	if len(s.Rules) == 0 {
		return nil, errors.New("comm: fault spec: empty specification")
	}
	return s, nil
}
