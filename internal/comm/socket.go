package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the socket transport: the same World contract carried over
// TCP or Unix-domain stream sockets between OS processes. The design in one
// paragraph: every local rank owns an endpoint (one listener) and one
// outbound link per peer, so each ordered rank pair has a dedicated simplex
// connection. Payloads travel as length-prefixed frames — a fixed header,
// the float64 payload, and a CRC-32C trailer over the whole frame (the
// application-level payload CRC from the checksum layer rides inside the
// header, untouched). Data frames carry per-link sequence numbers; every
// frame piggybacks a cumulative ack of the reverse direction. Senders retain
// unacknowledged frames and replay them after a reconnect (dial with bounded
// retry, exponential backoff and jitter); receivers deduplicate by sequence
// number, so delivery stays exactly-once and in-order across transient
// partitions. Idle links exchange heartbeat frames, and a peer silent past
// the liveness window surfaces as a RankError wrapping ErrPeerLost — the
// same typed failure the in-process fault injector produces.

// ErrPeerLost marks a peer rank declared dead by the transport: its
// heartbeats stopped past the liveness window, or redialling it exhausted
// the dial budget.
var ErrPeerLost = errors.New("comm: peer rank lost")

// Frame kinds.
const (
	frameHello byte = iota + 1 // first frame on every connection: identifies the dialling rank
	frameData                  // one point-to-point message
	frameBeat                  // heartbeat / ack carrier
)

// frameHeaderLen is the fixed header: kind(1) flags(1) src(4) dst(4) tag(8)
// seq(8) ack(8) appCRC(4) count(4).
const frameHeaderLen = 42

// maxFrameElems bounds a frame's payload element count — far above any halo
// strip or gathered field this code ships, low enough to reject a corrupt
// length prefix before it turns into a giant allocation.
const maxFrameElems = 1 << 26

// wireFrame is one frame queued on an outbound link.
type wireFrame struct {
	kind   byte
	summed bool
	src    int
	dst    int
	tag    int
	seq    uint64 // data frames only, assigned at enqueue
	crc    uint32 // application-level payload CRC (summed only)
	data   []float64
}

// wireCounters are the transport's cumulative statistics.
type wireCounters struct {
	framesSent  atomic.Uint64
	framesRecv  atomic.Uint64
	bytesSent   atomic.Uint64
	bytesRecv   atomic.Uint64
	dials       atomic.Uint64
	reconnects  atomic.Uint64
	retransmits atomic.Uint64
	dups        atomic.Uint64
	crcErrs     atomic.Uint64
	hbMisses    atomic.Uint64
}

// socketTransport implements Transport over stream sockets.
type socketTransport struct {
	w       *World
	opt     SocketOptions
	eps     []*endpoint
	epOf    []*endpoint // by rank; nil for ranks hosted by other processes
	done    chan struct{}
	closed  atomic.Bool
	cleanup func()
	wg      sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	stats wireCounters
}

// endpoint is one local rank's wire presence: its listener, its outbound
// links, and its per-peer receive state (liveness timestamps and the
// delivered-sequence watermarks that drive deduplication and acks).
type endpoint struct {
	tr       *socketTransport
	rank     int
	ln       net.Listener
	links    []*outLink      // by peer rank; nil for self
	lastSeen []atomic.Int64  // unix nanos of the last frame from each peer (0 = never)
	ackOut   []atomic.Uint64 // highest contiguous data seq delivered from each peer
	seqMu    []sync.Mutex    // serialises the dedup-check-and-deliver per peer
}

// outLink is the ordered, reliable outbound lane from one local rank to one
// peer. The queue is the only producer-shared state; everything else —
// the connection, the retain buffer, the encode scratch — is owned by the
// link's writer goroutine, so frame encoding races with nothing.
type outLink struct {
	tr   *socketTransport
	ep   *endpoint
	src  int
	peer int

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []wireFrame
	nextSeq uint64 // last assigned data sequence number (under mu)

	acked atomic.Uint64 // highest seq the peer has acknowledged

	// Writer-goroutine state.
	retained      []wireFrame // sent-but-unacked data frames, replayed on reconnect
	sentSeq       uint64      // highest seq written on the current connection
	maxSent       uint64      // highest seq ever written (retransmit accounting)
	conn          net.Conn
	everConnected bool
	enc           []byte
	rng           *rand.Rand
}

// newSocketTransport builds the endpoints and links for every local rank
// and starts their accept, monitor and writer goroutines.
func newSocketTransport(w *World, opt SocketOptions, cleanup func()) (*socketTransport, error) {
	tr := &socketTransport{
		w:       w,
		opt:     opt,
		epOf:    make([]*endpoint, w.size),
		done:    make(chan struct{}),
		cleanup: func() {},
		conns:   make(map[net.Conn]struct{}),
	}
	for _, rank := range w.local {
		ln, err := net.Listen(opt.network(), opt.Addrs[rank])
		if err != nil {
			tr.Close()
			return nil, fmt.Errorf("comm: rank %d: listen %s %s: %w", rank, opt.network(), opt.Addrs[rank], err)
		}
		ep := &endpoint{
			tr:       tr,
			rank:     rank,
			ln:       ln,
			links:    make([]*outLink, w.size),
			lastSeen: make([]atomic.Int64, w.size),
			ackOut:   make([]atomic.Uint64, w.size),
			seqMu:    make([]sync.Mutex, w.size),
		}
		for p := 0; p < w.size; p++ {
			if p == rank {
				continue
			}
			l := &outLink{
				tr:   tr,
				ep:   ep,
				src:  rank,
				peer: p,
				rng:  rand.New(rand.NewSource(int64(rank)<<16 | int64(p))),
			}
			l.cond = sync.NewCond(&l.mu)
			ep.links[p] = l
		}
		tr.eps = append(tr.eps, ep)
		tr.epOf[rank] = ep
	}
	// Cleanup only once construction can no longer fail halfway: Close on a
	// partial transport must not remove a directory it will retry into.
	tr.cleanup = cleanup
	for _, ep := range tr.eps {
		tr.wg.Add(2)
		go ep.acceptLoop()
		go ep.monitor()
		for _, l := range ep.links {
			if l != nil {
				tr.wg.Add(1)
				go l.run()
			}
		}
	}
	return tr, nil
}

// Deliver implements Transport: self-sends short-circuit to the local
// mailbox; everything else is framed onto the sender's link to dst. The
// payload buffer travels with the frame and returns to the pool when the
// peer acknowledges it.
func (t *socketTransport) Deliver(dst int, msg message) error {
	if t.closed.Load() {
		return errors.New("comm: socket transport closed")
	}
	ep := t.epOf[msg.src]
	if ep == nil {
		return fmt.Errorf("comm: rank %d is not hosted by this process", msg.src)
	}
	if dst == msg.src {
		t.w.boxes[dst].put(msg)
		return nil
	}
	return ep.links[dst].enqueue(wireFrame{
		kind:   frameData,
		summed: msg.summed,
		src:    msg.src,
		dst:    dst,
		tag:    msg.tag,
		crc:    msg.crc,
		data:   msg.data,
	})
}

// Stats implements Transport.
func (t *socketTransport) Stats() TransportStats {
	return TransportStats{
		FramesSent:      t.stats.framesSent.Load(),
		FramesRecv:      t.stats.framesRecv.Load(),
		BytesSent:       t.stats.bytesSent.Load(),
		BytesRecv:       t.stats.bytesRecv.Load(),
		Dials:           t.stats.dials.Load(),
		Reconnects:      t.stats.reconnects.Load(),
		Retransmits:     t.stats.retransmits.Load(),
		DupsDropped:     t.stats.dups.Load(),
		FrameCRCErrors:  t.stats.crcErrs.Load(),
		HeartbeatMisses: t.stats.hbMisses.Load(),
	}
}

// Close implements Transport: stops the monitors, closes every listener and
// connection, waits for all goroutines, and removes any auto-created socket
// directory. Idempotent.
func (t *socketTransport) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(t.done)
	for _, ep := range t.eps {
		ep.ln.Close()
		for _, l := range ep.links {
			if l != nil {
				// Under the link's lock: a writer between its closed check
				// and its Wait would otherwise miss the broadcast for good.
				l.mu.Lock()
				l.cond.Broadcast()
				l.mu.Unlock()
			}
		}
	}
	t.connMu.Lock()
	for c := range t.conns {
		c.Close()
	}
	t.connMu.Unlock()
	t.wg.Wait()
	t.cleanup()
	return nil
}

// track registers a connection for Close-time teardown.
func (t *socketTransport) track(c net.Conn) {
	t.connMu.Lock()
	t.conns[c] = struct{}{}
	t.connMu.Unlock()
}

// ---- outbound link ----

// enqueue appends a frame to the link's queue, assigning data frames their
// sequence number under the queue lock so queue order is sequence order.
func (l *outLink) enqueue(f wireFrame) error {
	l.mu.Lock()
	if l.tr.closed.Load() {
		l.mu.Unlock()
		return errors.New("comm: socket transport closed")
	}
	if f.kind == frameData {
		l.nextSeq++
		f.seq = l.nextSeq
	}
	l.queue = append(l.queue, f)
	l.mu.Unlock()
	l.cond.Signal()
	return nil
}

// pop blocks until a frame is queued or the transport closes.
func (l *outLink) pop() (wireFrame, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.queue) == 0 {
		if l.tr.closed.Load() {
			return wireFrame{}, false
		}
		l.cond.Wait()
	}
	f := l.queue[0]
	n := copy(l.queue, l.queue[1:])
	l.queue = l.queue[:n]
	return f, true
}

// run is the link's writer goroutine: it drains the queue, retains data
// frames until acknowledged, and owns the connection lifecycle.
func (l *outLink) run() {
	defer l.tr.wg.Done()
	defer l.dropConn()
	for {
		f, ok := l.pop()
		if !ok {
			return
		}
		l.prune()
		if f.kind == frameData {
			l.retained = append(l.retained, f)
			l.flush()
		} else {
			l.writeControl(f)
		}
	}
}

// prune releases retained frames the peer has acknowledged, returning their
// payload buffers to the pool. Only the writer touches the retain buffer,
// so a frame's payload is never read and recycled concurrently.
func (l *outLink) prune() {
	a := l.acked.Load()
	i := 0
	for i < len(l.retained) && l.retained[i].seq <= a {
		l.tr.w.putBuf(l.retained[i].data)
		i++
	}
	if i > 0 {
		l.retained = l.retained[:copy(l.retained, l.retained[i:])]
	}
}

// flush writes every retained frame not yet sent on the current connection,
// (re)dialling as needed. It returns once the retain buffer is flushed, the
// transport closes, or the world aborts (a dial that exhausts its budget
// aborts the world with ErrPeerLost).
func (l *outLink) flush() {
	for {
		if l.tr.closed.Load() || l.tr.w.aborted.Load() {
			return
		}
		if l.conn == nil && !l.dial() {
			return
		}
		clean := true
		for i := range l.retained {
			f := &l.retained[i]
			if f.seq <= l.sentSeq {
				continue
			}
			if inj := l.tr.opt.Injector; inj != nil {
				v := inj.OnFrame(l.src, l.peer)
				if v.Cut {
					l.dropConn()
					clean = false
					break
				}
				if v.Delay > 0 {
					time.Sleep(v.Delay)
				}
			}
			if err := l.writeFrame(*f); err != nil {
				l.dropConn()
				clean = false
				break
			}
			if f.seq <= l.maxSent {
				l.tr.stats.retransmits.Add(1)
			} else {
				l.maxSent = f.seq
			}
			l.sentSeq = f.seq
		}
		if clean {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// writeControl sends a heartbeat best-effort: it dials if needed (so idle
// links establish liveness early) but never retries a failed write — the
// next beat is due in one interval anyway.
func (l *outLink) writeControl(f wireFrame) {
	if l.tr.closed.Load() || l.tr.w.aborted.Load() {
		return
	}
	if l.conn == nil && !l.dial() {
		return
	}
	if inj := l.tr.opt.Injector; inj != nil {
		v := inj.OnFrame(l.src, l.peer)
		if v.Cut {
			l.dropConn()
			return
		}
		if v.Delay > 0 {
			time.Sleep(v.Delay)
		}
	}
	if err := l.writeFrame(f); err != nil {
		l.dropConn()
	}
}

// dial establishes the link's connection with bounded retry, exponential
// backoff and jitter. Exhausting the dial budget declares the peer lost and
// aborts the world.
func (l *outLink) dial() bool {
	tr := l.tr
	opt := &tr.opt
	budget := opt.dialTimeout()
	deadline := time.Now().Add(budget)
	backoff := 5 * time.Millisecond
	var lastErr error
	for {
		if tr.closed.Load() || tr.w.aborted.Load() {
			return false
		}
		cut := false
		if inj := opt.Injector; inj != nil {
			cut = inj.OnFrame(l.src, l.peer).Cut
		}
		if cut {
			lastErr = errors.New("link cut by fault injector")
		} else if d := time.Until(deadline); d > 0 {
			if d > time.Second {
				d = time.Second
			}
			c, err := net.DialTimeout(opt.network(), opt.Addrs[l.peer], d)
			if err == nil {
				l.conn = c
				l.sentSeq = l.acked.Load()
				if herr := l.writeFrame(wireFrame{kind: frameHello, src: l.src, dst: l.peer}); herr != nil {
					l.dropConn()
					lastErr = herr
				} else {
					tr.track(c)
					tr.stats.dials.Add(1)
					if l.everConnected {
						tr.stats.reconnects.Add(1)
					}
					l.everConnected = true
					return true
				}
			} else {
				lastErr = err
			}
		}
		if time.Now().After(deadline) {
			tr.w.Abort(&RankError{Rank: l.peer, Step: -1, Cause: fmt.Errorf(
				"comm: rank %d: dialling rank %d failed for %v (%v): %w",
				l.src, l.peer, budget, lastErr, ErrPeerLost)})
			return false
		}
		jitter := time.Duration(l.rng.Int63n(int64(backoff)/2 + 1))
		time.Sleep(backoff + jitter)
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
}

// dropConn closes and forgets the current connection (replay state is the
// retain buffer, which survives).
func (l *outLink) dropConn() {
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
}

// writeFrame encodes f into the link's scratch buffer and writes it in one
// call. Layout after the 4-byte length prefix: the fixed header, the payload
// as little-endian float64 bits, and a CRC-32C trailer over header+payload.
// The current cumulative ack is stamped on every frame.
func (l *outLink) writeFrame(f wireFrame) error {
	n := 4 + frameHeaderLen + 8*len(f.data) + 4
	if cap(l.enc) < n {
		l.enc = make([]byte, n)
	}
	b := l.enc[:n]
	binary.LittleEndian.PutUint32(b[0:], uint32(n-4))
	b[4] = f.kind
	var flags byte
	if f.summed {
		flags |= 1
	}
	b[5] = flags
	binary.LittleEndian.PutUint32(b[6:], uint32(int32(f.src)))
	binary.LittleEndian.PutUint32(b[10:], uint32(int32(f.dst)))
	binary.LittleEndian.PutUint64(b[14:], uint64(int64(f.tag)))
	binary.LittleEndian.PutUint64(b[22:], f.seq)
	binary.LittleEndian.PutUint64(b[30:], l.ep.ackOut[l.peer].Load())
	binary.LittleEndian.PutUint32(b[38:], f.crc)
	binary.LittleEndian.PutUint32(b[42:], uint32(len(f.data)))
	off := 46
	for _, v := range f.data {
		binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
		off += 8
	}
	binary.LittleEndian.PutUint32(b[off:], crc32.Checksum(b[4:off], castagnoli))
	if _, err := l.conn.Write(b); err != nil {
		return err
	}
	l.tr.stats.framesSent.Add(1)
	l.tr.stats.bytesSent.Add(uint64(n))
	return nil
}

// ---- inbound ----

// acceptLoop accepts peer connections for one endpoint.
func (ep *endpoint) acceptLoop() {
	defer ep.tr.wg.Done()
	for {
		c, err := ep.ln.Accept()
		if err != nil {
			return // listener closed
		}
		ep.tr.track(c)
		ep.tr.wg.Add(1)
		go ep.serveConn(c)
	}
}

// touch refreshes the liveness timestamp for peer.
func (ep *endpoint) touch(peer int) {
	ep.lastSeen[peer].Store(time.Now().UnixNano())
}

// ackLink advances the peer's cumulative acknowledgement of our outbound
// sequence numbers; the link's writer releases the retained payloads.
func (ep *endpoint) ackLink(peer int, ack uint64) {
	l := ep.links[peer]
	if l == nil {
		return
	}
	for {
		cur := l.acked.Load()
		if ack <= cur || l.acked.CompareAndSwap(cur, ack) {
			return
		}
	}
}

// serveConn reads frames off one accepted connection: CRC-verify, identify
// the peer from its hello, refresh liveness, process piggybacked acks, and
// deliver data frames exactly once (duplicates from a replay are dropped; a
// sequence gap is unmaskable loss and aborts the world). A frame failing
// the wire CRC drops the connection — the sender replays from its retain
// buffer on reconnect, which is the transport-level retransmission path.
func (ep *endpoint) serveConn(c net.Conn) {
	defer ep.tr.wg.Done()
	defer c.Close()
	w := ep.tr.w
	var lenBuf [4]byte
	var body []byte
	peer := -1
	for {
		if _, err := io.ReadFull(c, lenBuf[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n < frameHeaderLen+4 || n > frameHeaderLen+8*maxFrameElems+4 {
			ep.tr.stats.crcErrs.Add(1)
			return
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		b := body[:n]
		if _, err := io.ReadFull(c, b); err != nil {
			return
		}
		if crc32.Checksum(b[:n-4], castagnoli) != binary.LittleEndian.Uint32(b[n-4:]) {
			ep.tr.stats.crcErrs.Add(1)
			return
		}
		ep.tr.stats.framesRecv.Add(1)
		ep.tr.stats.bytesRecv.Add(uint64(n) + 4)
		kind := b[0]
		src := int(int32(binary.LittleEndian.Uint32(b[2:])))
		if kind == frameHello {
			if src < 0 || src >= w.size || src == ep.rank {
				return
			}
			peer = src
			ep.touch(peer)
			continue
		}
		if peer < 0 || src != peer {
			return // frames before hello, or a mid-stream identity change
		}
		ep.touch(peer)
		ep.ackLink(peer, binary.LittleEndian.Uint64(b[26:]))
		if kind != frameData {
			continue
		}
		dst := int(int32(binary.LittleEndian.Uint32(b[6:])))
		count := int(binary.LittleEndian.Uint32(b[38:]))
		if dst != ep.rank || count > maxFrameElems || frameHeaderLen+8*count+4 != int(n) {
			w.Abort(&RankError{Rank: peer, Step: -1, Cause: fmt.Errorf(
				"comm: rank %d: malformed data frame from rank %d (dst %d, count %d, len %d)",
				ep.rank, peer, dst, count, n)})
			return
		}
		tag := int(int64(binary.LittleEndian.Uint64(b[10:])))
		seq := binary.LittleEndian.Uint64(b[18:])
		ep.seqMu[peer].Lock()
		last := ep.ackOut[peer].Load()
		switch {
		case seq <= last:
			ep.tr.stats.dups.Add(1)
		case seq == last+1:
			data := w.getBuf(count)
			for i := 0; i < count; i++ {
				data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[frameHeaderLen+8*i:]))
			}
			w.boxes[dst].put(message{
				src:    src,
				tag:    tag,
				data:   data,
				crc:    binary.LittleEndian.Uint32(b[34:]),
				summed: b[1]&1 != 0,
			})
			ep.ackOut[peer].Store(seq)
		default:
			ep.seqMu[peer].Unlock()
			w.Abort(&RankError{Rank: peer, Step: -1, Cause: fmt.Errorf(
				"comm: rank %d: sequence gap from rank %d (got %d, want %d): unmaskable frame loss",
				ep.rank, peer, seq, last+1)})
			return
		}
		ep.seqMu[peer].Unlock()
	}
}

// monitor is the endpoint's heartbeat loop: every interval it queues a beat
// to each peer (which doubles as the ack carrier for idle links) and checks
// each peer's liveness window. The window only starts counting once a peer
// has been heard from at all — a peer that never connects is caught by the
// dial budget on the sending side instead.
func (ep *endpoint) monitor() {
	defer ep.tr.wg.Done()
	opt := &ep.tr.opt
	if opt.HeartbeatInterval < 0 {
		return
	}
	interval := opt.heartbeatInterval()
	timeout := opt.heartbeatTimeout()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ep.tr.done:
			return
		case <-tick.C:
		}
		if ep.tr.w.aborted.Load() {
			return
		}
		now := time.Now().UnixNano()
		for peer, l := range ep.links {
			if l == nil {
				continue
			}
			l.enqueue(wireFrame{kind: frameBeat, src: ep.rank, dst: peer}) //nolint:errcheck // closing transport drops beats
			last := ep.lastSeen[peer].Load()
			if last != 0 && now-last > int64(timeout) {
				ep.tr.stats.hbMisses.Add(1)
				ep.tr.w.Abort(&RankError{Rank: peer, Step: -1, Cause: fmt.Errorf(
					"comm: rank %d: no frames from rank %d for %v: %w",
					ep.rank, peer, timeout, ErrPeerLost)})
				return
			}
		}
	}
}
