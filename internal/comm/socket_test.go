package comm

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runMeshProgram runs a small but comm-dense SPMD program — ring halo
// exchanges, allreduces of all three ops, broadcasts — and returns each
// rank's final scalar. Identical across transports by construction; the
// socket conformance tests pin that.
func runMeshProgram(w *World, steps int) ([]float64, error) {
	out := make([]float64, w.Size())
	var mu sync.Mutex
	err := w.Run(func(r *Rank) {
		n := r.Size()
		x := float64(r.ID()*r.ID()) + 0.25
		buf := make([]float64, 8)
		for s := 0; s < steps; s++ {
			right := (r.ID() + 1) % n
			left := (r.ID() + n - 1) % n
			for i := range buf {
				buf[i] = x + float64(i)*1e-3
			}
			r.Send(right, 7, buf)
			got := r.Recv(left, 7)
			x = 0.5*x + 0.25*got[0] + 0.125*got[len(got)-1]
			r.world.putBuf(got)
			sum := r.AllreduceSum(x)
			lo := r.Allreduce(x, OpMin)
			hi := r.Allreduce(x, OpMax)
			x = x + 1e-3*sum - 1e-4*(hi-lo)
			r.Barrier()
		}
		mu.Lock()
		out[r.ID()] = x
		mu.Unlock()
	})
	return out, err
}

// TestSocketWorldMatchesInProcess pins the tentpole determinism contract:
// the same program on an in-process world and on a loopback socket world
// produces bitwise-identical results on every rank.
func TestSocketWorldMatchesInProcess(t *testing.T) {
	const size, steps = 4, 25
	ref, err := runMeshProgram(NewWorld(size), steps)
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}
	sw, err := NewSocketWorld(size, SocketOptions{})
	if err != nil {
		t.Fatalf("NewSocketWorld: %v", err)
	}
	defer sw.Close()
	got, err := runMeshProgram(sw, steps)
	if err != nil {
		t.Fatalf("socket run: %v", err)
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Errorf("rank %d: socket %v != in-process %v (diff %g)", i, got[i], ref[i], got[i]-ref[i])
		}
	}
	st := sw.WireStats()
	if st.FramesSent == 0 || st.FramesRecv == 0 || st.BytesSent == 0 {
		t.Errorf("wire stats not counting: %+v", st)
	}
}

// TestSocketWorldChecksums runs the same program with payload checksums on:
// every frame then carries an application CRC end to end.
func TestSocketWorldChecksums(t *testing.T) {
	const size, steps = 3, 10
	ref := NewWorld(size)
	ref.SetChecksums(true)
	want, err := runMeshProgram(ref, steps)
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}
	sw, err := NewSocketWorld(size, SocketOptions{})
	if err != nil {
		t.Fatalf("NewSocketWorld: %v", err)
	}
	defer sw.Close()
	sw.SetChecksums(true)
	got, err := runMeshProgram(sw, steps)
	if err != nil {
		t.Fatalf("socket run: %v", err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("rank %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestSocketWorldTCP exercises the TCP network option on loopback.
func TestSocketWorldTCP(t *testing.T) {
	const size = 2
	// A coordinator would assign real ports; emulate by reserving free
	// loopback ports up front.
	addrs := make([]string, size)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	sw, err := NewSocketWorld(size, SocketOptions{Network: "tcp", Addrs: addrs})
	if err != nil {
		t.Fatalf("NewSocketWorld tcp: %v", err)
	}
	defer sw.Close()
	if _, err := runMeshProgram(sw, 5); err != nil {
		t.Fatalf("tcp run: %v", err)
	}
}

// TestSocketWorldPartitionRecovers injects a transient partition around rank
// 1 via the fault grammar and checks the run still completes with the exact
// fault-free answer. The grammar's partition window opens at the first
// matching frame — effectively a startup outage — so this pins the
// dial-retry/backoff masking; mid-run connection drops are exercised by
// TestSocketWorldReconnectReplay below.
func TestSocketWorldPartitionRecovers(t *testing.T) {
	const size, steps = 3, 30
	want, err := runMeshProgram(NewWorld(size), steps)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	sched, err := ParseSpec("partition:rank=1,dur=300ms")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	sw, err := NewSocketWorld(size, SocketOptions{
		Injector:    sched,
		DialTimeout: 20 * time.Second, // outlive the partition comfortably
	})
	if err != nil {
		t.Fatalf("NewSocketWorld: %v", err)
	}
	defer sw.Close()
	got, err := runMeshProgram(sw, steps)
	if err != nil {
		t.Fatalf("partitioned run failed (should have been masked): %v", err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("rank %d: %v != %v after partition", i, got[i], want[i])
		}
	}
}

// cutAfter is a test injector that severs every link touching rank for dur,
// starting once `after` matching frames have flowed — i.e. well after the
// connections are established, unlike the grammar's startup-window
// partition. It forces established connections to drop with unacknowledged
// frames in flight, exercising reconnect, retained-frame replay and
// receiver-side deduplication.
type cutAfter struct {
	rank  int
	after int64
	dur   time.Duration
	seen  atomic.Int64
	until atomic.Int64 // unix nanos; 0 = window not yet opened
}

func (c *cutAfter) OnFrame(src, dst int) FrameVerdict {
	if src != c.rank && dst != c.rank {
		return FrameVerdict{}
	}
	if c.seen.Add(1) < c.after {
		return FrameVerdict{}
	}
	if c.until.Load() == 0 {
		c.until.CompareAndSwap(0, time.Now().Add(c.dur).UnixNano())
	}
	if time.Now().UnixNano() < c.until.Load() {
		return FrameVerdict{Cut: true}
	}
	return FrameVerdict{}
}

// TestSocketWorldReconnectReplay drops rank 1's established connections
// mid-run and checks the run completes bitwise-correct, with the transport
// reporting actual reconnections.
func TestSocketWorldReconnectReplay(t *testing.T) {
	const size, steps = 3, 60
	want, err := runMeshProgram(NewWorld(size), steps)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	inj := &cutAfter{rank: 1, after: 150, dur: 250 * time.Millisecond}
	sw, err := NewSocketWorld(size, SocketOptions{
		Injector:    inj,
		DialTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewSocketWorld: %v", err)
	}
	defer sw.Close()
	got, err := runMeshProgram(sw, steps)
	if err != nil {
		t.Fatalf("run with mid-flight cut failed: %v", err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("rank %d: %v != %v after reconnect", i, got[i], want[i])
		}
	}
	st := sw.WireStats()
	if st.Reconnects == 0 {
		t.Errorf("expected reconnects after mid-run cut, stats %+v", st)
	}
	t.Logf("wire stats after cut: %+v", st)
}

// TestSocketWorldSlowlink checks a lossy-slow link perturbs nothing but
// timing.
func TestSocketWorldSlowlink(t *testing.T) {
	const size, steps = 3, 10
	want, err := runMeshProgram(NewWorld(size), steps)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	sched, err := ParseSpec("slowlink:prob=0.2,delay=1ms")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	sw, err := NewSocketWorld(size, SocketOptions{Injector: sched})
	if err != nil {
		t.Fatalf("NewSocketWorld: %v", err)
	}
	defer sw.Close()
	got, err := runMeshProgram(sw, steps)
	if err != nil {
		t.Fatalf("slowlink run: %v", err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("rank %d: %v != %v under slowlink", i, got[i], want[i])
		}
	}
}

// TestJoinWorldHeartbeatDetectsDeath builds a 2-rank world from two
// JoinWorld memberships (the cross-process topology, here sharing one test
// process) and kills one member's transport mid-run: the survivor's
// heartbeat monitor must declare the peer lost with the typed error.
func TestJoinWorldHeartbeatDetectsDeath(t *testing.T) {
	dir, err := os.MkdirTemp("", "tlw")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	addrs := []string{filepath.Join(dir, "r0.sock"), filepath.Join(dir, "r1.sock")}
	opt := SocketOptions{
		Addrs:             addrs,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  150 * time.Millisecond,
		DialTimeout:       5 * time.Second,
	}
	w0, err := JoinWorld(0, 2, opt)
	if err != nil {
		t.Fatalf("JoinWorld 0: %v", err)
	}
	defer w0.Close()
	w1, err := JoinWorld(1, 2, opt)
	if err != nil {
		t.Fatalf("JoinWorld 1: %v", err)
	}

	var wg sync.WaitGroup
	var err0, err1 error
	wg.Add(2)
	go func() {
		defer wg.Done()
		err0 = w0.Run(func(r *Rank) {
			r.Send(1, 1, []float64{3.5})
			if got := r.Recv(1, 2); got[0] != 4.5 {
				panic(fmt.Sprintf("got %v", got[0]))
			}
			// Wait for a reply that will never come: rank 1's process dies.
			r.Recv(1, 3)
		})
	}()
	go func() {
		defer wg.Done()
		err1 = w1.Run(func(r *Rank) {
			if got := r.Recv(0, 1); got[0] != 3.5 {
				panic(fmt.Sprintf("got %v", got[0]))
			}
			r.Send(0, 2, []float64{4.5})
			// Let the reply and a few heartbeats reach rank 0, so both sides
			// have live, established connections before the death.
			time.Sleep(100 * time.Millisecond)
			// Simulate sudden process death: tear the transport down without
			// any goodbye.
			w1.Close()
			panic(ErrKilled)
		})
	}()
	wg.Wait()
	if err1 == nil {
		t.Fatalf("rank 1 should have failed")
	}
	if err0 == nil {
		t.Fatalf("rank 0 should have detected peer loss")
	}
	if !errors.Is(err0, ErrPeerLost) {
		t.Fatalf("rank 0 error should wrap ErrPeerLost, got %v", err0)
	}
	var re *RankError
	if !errors.As(err0, &re) || re.Rank != 1 {
		t.Fatalf("rank 0 error should be a RankError naming rank 1, got %v", err0)
	}
	if st := w0.WireStats(); st.HeartbeatMisses == 0 {
		t.Errorf("expected heartbeat misses on the survivor, stats %+v", st)
	}
}

// TestSocketWorldCorruptionDetected checks the SDC ladder holds over the
// wire: a sticky flip on a socket world escalates as a CorruptionError (no
// shared-memory backup exists to repair from).
func TestSocketWorldCorruptionDetected(t *testing.T) {
	sched, err := ParseSpec("flip:rank=0,op=1,tag=7")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	sw, err := NewSocketWorld(2, SocketOptions{})
	if err != nil {
		t.Fatalf("NewSocketWorld: %v", err)
	}
	defer sw.Close()
	sw.SetChecksums(true)
	sw.SetFaultInjector(sched)
	err = sw.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, []float64{1, 2, 3})
		} else {
			r.Recv(0, 7)
		}
	})
	if err == nil {
		t.Fatalf("flipped payload should escalate")
	}
	if !errors.Is(err, ErrCorruption) {
		t.Fatalf("want ErrCorruption, got %v", err)
	}
	detected, recovered := sw.ChecksumStats()
	if detected == 0 || recovered != 0 {
		t.Errorf("want detected>0 recovered=0 over the wire, got %d/%d", detected, recovered)
	}
}

// TestSocketWorldKillProcInProcess checks killproc degrades to an ActKill
// panic when process exits are not enabled, so in-process chaos tests can
// use fleet specs safely.
func TestSocketWorldKillProcInProcess(t *testing.T) {
	sched, err := ParseSpec("killproc:rank=1,step=4")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	sw, err := NewSocketWorld(2, SocketOptions{})
	if err != nil {
		t.Fatalf("NewSocketWorld: %v", err)
	}
	defer sw.Close()
	sw.SetFaultInjector(sched)
	_, err = runMeshProgram(sw, 10)
	if err == nil {
		t.Fatalf("killproc should fail the run")
	}
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("want ErrKilled, got %v", err)
	}
}

// TestDistCollectivesMatchInProcess sweeps sizes and pins distributed
// collectives (including vector reductions and min/max with negative zero
// and denormal inputs) against the shared-scratch implementations.
func TestDistCollectivesMatchInProcess(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5} {
		vals := make([]float64, size)
		for i := range vals {
			vals[i] = math.Ldexp(float64(3*i-size), -i) // mixed signs/scales
		}
		type result struct{ sum, min, max float64 }
		run := func(w *World) []result {
			res := make([]result, size)
			var mu sync.Mutex
			if err := w.Run(func(r *Rank) {
				x := vals[r.ID()]
				var out result
				out.sum = r.AllreduceSum(x)
				out.min = r.Allreduce(x, OpMin)
				out.max = r.Allreduce(x, OpMax)
				mu.Lock()
				res[r.ID()] = out
				mu.Unlock()
			}); err != nil {
				t.Fatalf("size %d: %v", size, err)
			}
			return res
		}
		want := run(NewWorld(size))
		sw, err := NewSocketWorld(size, SocketOptions{})
		if err != nil {
			t.Fatalf("NewSocketWorld(%d): %v", size, err)
		}
		got := run(sw)
		sw.Close()
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("size %d rank %d: dist %+v != in-proc %+v", size, i, got[i], want[i])
			}
		}
	}
}

// TestSocketCloseDoesNotHang: closing a socket world right after it starts
// — while its link writers may be between their closed check and their wait
// — must return. Close used to broadcast without the link's lock, and about
// one close in 50,000 under -race lost the wake-up and hung.
func TestSocketCloseDoesNotHang(t *testing.T) {
	for i := 0; i < 1000; i++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			w, err := NewSocketWorld(3, SocketOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			w.Close()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("Close hung after %d clean cycles", i)
		}
	}
}

// TestParseSpecTransportFaults pins the extended fault grammar: the new
// transport-level actions, their required keys and the step alias.
func TestParseSpecTransportFaults(t *testing.T) {
	good := []string{
		"partition:rank=1,dur=2s",
		"partition:dur=1.5s",
		"slowlink:rank=2,prob=0.05,delay=5ms",
		"slowlink:prob=0.1",
		"killproc:rank=2,op=40",
		"partition:rank=0,dur=500ms;slowlink:prob=0.01,seed=9",
		"kill:rank=1,op=40;partition:rank=1,dur=2s",
	}
	for _, spec := range good {
		if _, err := ParseSpec(spec); err != nil {
			t.Errorf("ParseSpec(%q): %v", spec, err)
		}
	}

	// step is an accepted alias for op.
	s, err := ParseSpec("killproc:rank=2,step=40")
	if err != nil {
		t.Fatalf("step alias: %v", err)
	}
	if r := s.Rules[0]; r.Action != ActKillProc || r.Rank != 2 || r.Op != 40 {
		t.Errorf("step alias: rule = %+v, want killproc on rank 2 at op 40", r)
	}

	bad := []string{
		"partition:rank=1",                 // missing dur
		"partition:rank=1,dur=0s",          // non-positive dur
		"partition:rank=1,dur=2s,op=5",     // op inapplicable
		"partition:rank=1,dur=2s,prob=0.5", // prob inapplicable
		"slowlink:rank=1",                  // missing prob
		"slowlink:prob=0.5,dur=2s",         // dur is partition-only
		"killproc:rank=2",                  // missing op
		"killproc:rank=2,prob=0.5",         // prob inapplicable
		"kill:rank=1,op=4,delay=5ms",       // delay is slowlink-only
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) should fail", spec)
		}
	}
}

// TestFrameRulesInertOnOpPath checks partition/slowlink rules never fire on
// the operation path, so a fleet chaos spec can be reused on an in-process
// world without spurious op-level faults.
func TestFrameRulesInertOnOpPath(t *testing.T) {
	s, err := ParseSpec("partition:rank=0,dur=1s;slowlink:rank=0,prob=1")
	if err != nil {
		t.Fatal(err)
	}
	for op := 1; op < 50; op++ {
		if act := s.OnSend(0, 1, 3, op); act != ActNone {
			t.Fatalf("OnSend op %d: got %v, want ActNone", op, act)
		}
		if act := s.OnCollective(0, op); act != ActNone {
			t.Fatalf("OnCollective op %d: got %v, want ActNone", op, act)
		}
	}
	// The frame path does fire.
	if v := s.OnFrame(0, 1); !v.Cut {
		t.Errorf("OnFrame should cut during the partition window")
	}
	if v := s.OnFrame(1, 2); v.Cut || v.Delay > 0 {
		t.Errorf("OnFrame for an unmatched pair should be clean, got %+v", v)
	}
}
