package comm

import (
	"errors"
	"math"
	"testing"
)

// TestChecksumCleanPath: with checksums on and no faults, payloads and
// reductions pass verification untouched and the counters stay zero.
func TestChecksumCleanPath(t *testing.T) {
	w := NewWorld(4)
	w.SetChecksums(true)
	err := w.Run(func(r *Rank) {
		data := []float64{1, 2, 3, float64(r.ID())}
		next := (r.ID() + 1) % r.Size()
		prev := (r.ID() + r.Size() - 1) % r.Size()
		r.Send(next, 7, data)
		got := r.Recv(prev, 7)
		if len(got) != 4 || got[3] != float64(prev) {
			t.Errorf("rank %d: bad payload %v", r.ID(), got)
		}
		if sum := r.AllreduceSum(1); sum != 4 {
			t.Errorf("rank %d: allreduce sum = %v, want 4", r.ID(), sum)
		}
	})
	if err != nil {
		t.Fatalf("clean checksummed run failed: %v", err)
	}
	if d, rec := w.ChecksumStats(); d != 0 || rec != 0 {
		t.Fatalf("clean run recorded detections: detected=%d recovered=%d", d, rec)
	}
}

// TestChecksumRepairsWireFlip: a non-sticky flip corrupts only the wire
// copy; the receive detects the mismatch and silently repairs it from the
// retransmission copy, so the run succeeds with the pristine value.
func TestChecksumRepairsWireFlip(t *testing.T) {
	w := NewWorld(2)
	w.SetChecksums(true)
	sched := &Schedule{Rules: []Rule{
		{Action: ActFlip, Rank: 0, Op: 1, Tag: -1, Bit: 52, Idx: 1},
	}}
	w.SetFaultInjector(sched)
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 3, []float64{10, 20, 30})
		} else {
			got := r.Recv(0, 3)
			if got[1] != 20 {
				t.Errorf("repaired payload element = %v, want 20", got[1])
			}
		}
	})
	if err != nil {
		t.Fatalf("repairable flip failed the run: %v", err)
	}
	if d, rec := w.ChecksumStats(); d != 1 || rec != 1 {
		t.Fatalf("detected=%d recovered=%d, want 1/1", d, rec)
	}
}

// TestChecksumStickyFlipEscalates: a sticky flip hits the retransmission
// copy too, so repair is impossible and the receive escalates a typed
// CorruptionError through the RankError chain.
func TestChecksumStickyFlipEscalates(t *testing.T) {
	w := NewWorld(2)
	w.SetChecksums(true)
	sched := &Schedule{Rules: []Rule{
		{Action: ActFlip, Rank: 0, Op: 1, Tag: -1, Bit: 52, Sticky: true},
	}}
	w.SetFaultInjector(sched)
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 3, []float64{10, 20, 30})
		} else {
			r.Recv(0, 3)
		}
	})
	if !errors.Is(err, ErrCorruption) {
		t.Fatalf("err = %v, want ErrCorruption in chain", err)
	}
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("err chain lacks *CorruptionError: %v", err)
	}
	if ce.Rank != 1 || ce.Src != 0 || ce.Tag != 3 {
		t.Errorf("CorruptionError = %+v, want rank 1 detecting src 0 tag 3", ce)
	}
	if d, rec := w.ChecksumStats(); d != 1 || rec != 0 {
		t.Fatalf("detected=%d recovered=%d, want 1/0", d, rec)
	}
}

// TestChecksumOffFlipIsSilent: the negative control — with checksums off
// the same flip sails through and delivers a finite wrong value.
func TestChecksumOffFlipIsSilent(t *testing.T) {
	w := NewWorld(2)
	sched := &Schedule{Rules: []Rule{
		{Action: ActFlip, Rank: 0, Op: 1, Tag: -1, Bit: 52},
	}}
	w.SetFaultInjector(sched)
	var got float64
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 3, []float64{10})
		} else {
			got = r.Recv(0, 3)[0]
		}
	})
	if err != nil {
		t.Fatalf("unchecked run failed: %v", err)
	}
	if got == 10 || math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("flipped value = %v, want finite and wrong (bit 52 of 10 -> 20)", got)
	}
	if got != FlipBits(10, 52) {
		t.Fatalf("flipped value = %v, want %v", got, FlipBits(10, 52))
	}
}

// TestAllreduceFlipDetected: a flip at a collective corrupts the staged
// reduction contribution after its CRC, so every reading rank detects it
// and the run fails with CorruptionError (Tag -1: a collective).
func TestAllreduceFlipDetected(t *testing.T) {
	w := NewWorld(4)
	w.SetChecksums(true)
	sched := &Schedule{Rules: []Rule{
		{Action: ActFlip, Rank: 2, Op: 1, Tag: -1, Bit: 52},
	}}
	w.SetFaultInjector(sched)
	err := w.Run(func(r *Rank) {
		r.AllreduceSum(float64(r.ID() + 1))
	})
	if !errors.Is(err, ErrCorruption) {
		t.Fatalf("err = %v, want ErrCorruption", err)
	}
	var ce *CorruptionError
	if !errors.As(err, &ce) || ce.Src != 2 || ce.Tag != -1 {
		t.Fatalf("CorruptionError = %+v, want src 2 tag -1", ce)
	}
	if d, _ := w.ChecksumStats(); d == 0 {
		t.Fatal("no detections recorded")
	}
}

// TestAllreduceFlipSilentWithoutChecks: the collective negative control —
// without checksums the flipped contribution folds into the sum on every
// rank, producing an identical, finite, wrong result.
func TestAllreduceFlipSilentWithoutChecks(t *testing.T) {
	w := NewWorld(4)
	sched := &Schedule{Rules: []Rule{
		{Action: ActFlip, Rank: 2, Op: 1, Tag: -1, Bit: 52},
	}}
	w.SetFaultInjector(sched)
	sums := make([]float64, 4)
	err := w.Run(func(r *Rank) {
		sums[r.ID()] = r.AllreduceSum(float64(r.ID() + 1))
	})
	if err != nil {
		t.Fatalf("unchecked run failed: %v", err)
	}
	// 1+2+3+4 = 10 fault-free; rank 2's contribution 3 doubles to 6 -> 13.
	for i, s := range sums {
		if s != 13 {
			t.Fatalf("rank %d sum = %v, want 13 (silently wrong but deterministic)", i, s)
		}
	}
}

// TestFlipBits pins the bit-flip model: bit 52 doubles small-exponent
// values, bit 63 flips the sign, and a double flip restores the original.
func TestFlipBits(t *testing.T) {
	if got := FlipBits(10, 52); got != 20 {
		t.Errorf("FlipBits(10, 52) = %v, want 20", got)
	}
	if got := FlipBits(1.5, 63); got != -1.5 {
		t.Errorf("FlipBits(1.5, 63) = %v, want -1.5", got)
	}
	if got := FlipBits(FlipBits(3.25, 17), 17); got != 3.25 {
		t.Errorf("double flip = %v, want 3.25", got)
	}
}

// TestParseSpecFlip covers the flip grammar: defaults, every key, and the
// rejections for out-of-range values and flip-only keys on other actions.
func TestParseSpecFlip(t *testing.T) {
	s, err := ParseSpec("flip:rank=1,op=30,bit=12,idx=5,sticky=1")
	if err != nil {
		t.Fatal(err)
	}
	r := s.Rules[0]
	if r.Action != ActFlip || r.Rank != 1 || r.Op != 30 || r.Bit != 12 || r.Idx != 5 || !r.Sticky {
		t.Fatalf("parsed rule = %+v", r)
	}

	s, err = ParseSpec("flip:op=7")
	if err != nil {
		t.Fatal(err)
	}
	if s.Rules[0].Bit != DefaultFlipBit || s.Rules[0].Idx != 0 || s.Rules[0].Sticky {
		t.Fatalf("defaults wrong: %+v", s.Rules[0])
	}

	for _, bad := range []string{
		"flip:op=1,bit=64",
		"flip:op=1,bit=-1",
		"flip:op=1,idx=-2",
		"flip:op=1,sticky=maybe",
		"drop:op=1,bit=5",
		"kill:op=1,sticky=1",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", bad)
		}
	}
}
