// Recovery: the paper assumes the signature packet "always arrives" —
// achieved in practice by sending it multiple times. On the real UDP path
// that assumption has to be earned. This file implements the machinery:
// senders retry transient socket errors with capped backoff and answer
// NACK-style repair requests from a bounded store of recent blocks;
// listeners detect starved blocks (packets buffered, nothing verifiable)
// and re-request authentication material with capped exponential backoff
// until they give up. An optional fault hook mutates outgoing datagrams for
// chaos testing of the whole path.

package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mcauth/internal/fault"
	"mcauth/internal/obs"
	"mcauth/internal/packet"
	"mcauth/internal/stats"
)

// IsTransientSendErr reports whether a datagram send failure is worth
// retrying: timeouts, full socket buffers (ENOBUFS/EAGAIN), interrupted
// calls, and ECONNREFUSED (on a connected UDP socket it only means the
// receiver is not up yet — normal during feed startup).
func IsTransientSendErr(err error) bool {
	if err == nil {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, syscall.ENOBUFS) ||
		errors.Is(err, syscall.EAGAIN) ||
		errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.ECONNREFUSED)
}

// maxSendBackoff caps the retry backoff: past a second the stream has
// moved on and a stale datagram helps nobody.
const maxSendBackoff = time.Second

// SendWithRetry transmits one packet, retrying transient socket errors up
// to attempts times with exponential backoff starting at backoff and
// capped at one second. Permanent errors return immediately.
func (ds *DatagramSender) SendWithRetry(p *packet.Packet, attempts int, backoff time.Duration) error {
	if attempts < 1 {
		return fmt.Errorf("transport: attempts %d must be >= 1", attempts)
	}
	var last error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			ds.m.countSendRetry()
			time.Sleep(backoff)
			backoff = min(2*backoff, maxSendBackoff)
		}
		last = ds.Send(p)
		if last == nil {
			return nil
		}
		if !IsTransientSendErr(last) {
			return last
		}
	}
	return fmt.Errorf("transport: send failed after %d attempts: %w", attempts, last)
}

// SetFaults routes subsequent Sends through a seeded adversarial channel:
// every datagram passes the injector, which may corrupt or truncate it,
// emit duplicates, or append forgeries. Timing faults (reorder spikes,
// stalls) are netsim's domain and are ignored here — the UDP hook mutates
// bytes, not the clock. Pass nil to disable. Not safe to call concurrently
// with Send.
func (ds *DatagramSender) SetFaults(cfg *fault.Config, seed uint64) error {
	if cfg == nil || !cfg.Enabled() {
		ds.inj = nil
		return nil
	}
	inj, err := fault.NewInjector(*cfg, stats.NewRNG(seed))
	if err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	ds.inj = inj
	return nil
}

// sendFaulted is Send's adversarial path: one WriteTo per injector
// delivery.
func (ds *DatagramSender) sendFaulted(wire []byte, p *packet.Packet) error {
	for _, d := range ds.inj.Apply(wire, p) {
		if _, err := ds.conn.WriteTo(d.Wire, ds.addr); err != nil {
			return fmt.Errorf("transport: send: %w", err)
		}
		if ds.m != nil {
			ds.m.datagramsSent.Inc()
			ds.m.bytesWritten.Add(int64(len(d.Wire)))
		}
	}
	return nil
}

// NACK wire format: a fixed 16-byte datagram, distinguishable from any
// packet encoding by its magic. Index 0 requests the block's
// authentication material (every signature-bearing packet); a nonzero
// index requests that specific packet.
const (
	nackMagic = "MCNK"
	nackSize  = 16
)

// NACKSigRequest is the index meaning "resend the block's signature /
// bootstrap packets".
const NACKSigRequest uint32 = 0

// EncodeNACK builds the repair-request datagram.
func EncodeNACK(blockID uint64, index uint32) []byte {
	b := make([]byte, nackSize)
	copy(b, nackMagic)
	binary.BigEndian.PutUint64(b[4:], blockID)
	binary.BigEndian.PutUint32(b[12:], index)
	return b
}

// DecodeNACK parses a repair request; ok is false for anything that is not
// exactly a NACK datagram.
func DecodeNACK(b []byte) (blockID uint64, index uint32, ok bool) {
	if len(b) != nackSize || string(b[:4]) != nackMagic {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(b[4:]), binary.BigEndian.Uint32(b[12:]), true
}

// RepairStore retains recent blocks' packets so a sender can answer repair
// requests. It is bounded: beyond maxBlocks, the oldest block is evicted —
// a NACK for an evicted block simply goes unanswered, like any other lost
// repair. Safe for concurrent use.
type RepairStore struct {
	mu        sync.Mutex
	maxBlocks int
	blocks    map[uint64][]*packet.Packet
	order     []uint64
}

// NewRepairStore creates a store retaining at most maxBlocks blocks.
func NewRepairStore(maxBlocks int) (*RepairStore, error) {
	if maxBlocks < 1 {
		return nil, fmt.Errorf("transport: repair store size %d must be >= 1", maxBlocks)
	}
	return &RepairStore{
		maxBlocks: maxBlocks,
		blocks:    make(map[uint64][]*packet.Packet),
	}, nil
}

// Put records a block's packets (typically right after Authenticate).
func (rs *RepairStore) Put(blockID uint64, pkts []*packet.Packet) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if _, exists := rs.blocks[blockID]; !exists {
		rs.order = append(rs.order, blockID)
	}
	rs.blocks[blockID] = append([]*packet.Packet(nil), pkts...)
	for len(rs.blocks) > rs.maxBlocks {
		oldest := rs.order[0]
		rs.order = rs.order[1:]
		delete(rs.blocks, oldest)
	}
}

// Add appends packets to a block without replacing what is already stored
// — the serving tier stores a block in two phases (data packets at emit,
// withheld signature packets once the batch root is signed). Eviction
// bounds apply as in Put.
func (rs *RepairStore) Add(blockID uint64, pkts []*packet.Packet) {
	if len(pkts) == 0 {
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if _, exists := rs.blocks[blockID]; !exists {
		rs.order = append(rs.order, blockID)
	}
	rs.blocks[blockID] = append(rs.blocks[blockID], pkts...)
	for len(rs.blocks) > rs.maxBlocks {
		oldest := rs.order[0]
		rs.order = rs.order[1:]
		delete(rs.blocks, oldest)
	}
}

// Since returns every retained packet of every block with ID >= from, in
// insertion order of blocks — the session-resume catch-up replay. The
// packets themselves are shared, not copied; callers must not mutate them.
func (rs *RepairStore) Since(from uint64) []*packet.Packet {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var out []*packet.Packet
	for _, id := range rs.order {
		if id < from {
			continue
		}
		out = append(out, rs.blocks[id]...)
	}
	return out
}

// Packets answers one repair request: for NACKSigRequest, every
// signature-bearing packet of the block; otherwise the packet with the
// given index. Nil when the block is unknown (evicted or never stored).
func (rs *RepairStore) Packets(blockID uint64, index uint32) []*packet.Packet {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	pkts, ok := rs.blocks[blockID]
	if !ok {
		return nil
	}
	var out []*packet.Packet
	for _, p := range pkts {
		if index == NACKSigRequest {
			if len(p.Signature) > 0 {
				out = append(out, p)
			}
		} else if p.Index == index {
			out = append(out, p)
			break
		}
	}
	return out
}

// Blocks returns how many blocks are currently retained.
func (rs *RepairStore) Blocks() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.blocks)
}

// RepairResponder reads NACK datagrams from a sender-side socket and
// answers them from a RepairStore. Datagrams that are not NACKs are
// ignored — stray or adversarial traffic must never stop the responder.
type RepairResponder struct {
	conn   net.PacketConn
	store  *RepairStore
	done   chan struct{}
	served atomic.Int64
	closed atomic.Bool

	mu sync.Mutex
	m  *wireMetrics
}

// SetMetrics enables transport.* accounting for served repairs (nil
// disables). Safe to call while the responder runs.
func (rr *RepairResponder) SetMetrics(reg *obs.Registry) {
	m := newWireMetrics(reg)
	rr.mu.Lock()
	rr.m = m
	rr.mu.Unlock()
}

// ServeRepairs starts answering repair requests arriving on conn. The
// responder shares the sender's socket: replies go to whatever address the
// request came from.
func ServeRepairs(conn net.PacketConn, store *RepairStore) (*RepairResponder, error) {
	if conn == nil || store == nil {
		return nil, errors.New("transport: nil conn or store")
	}
	rr := &RepairResponder{
		conn:  conn,
		store: store,
		done:  make(chan struct{}),
	}
	go rr.loop()
	return rr, nil
}

func (rr *RepairResponder) loop() {
	defer close(rr.done)
	buf := make([]byte, MaxFrameSize)
	for {
		n, from, err := rr.conn.ReadFrom(buf)
		if err != nil {
			if rr.closed.Load() {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return
		}
		blockID, index, ok := DecodeNACK(buf[:n])
		if !ok {
			continue
		}
		for _, p := range rr.store.Packets(blockID, index) {
			wire, err := p.Encode()
			if err != nil {
				continue
			}
			// Count before the write: on loopback the repair can be
			// received and authenticated before WriteTo returns, and
			// Served must never lag the effect it reports. The registry
			// counter must stay monotonic, so it counts completed writes.
			rr.served.Add(1)
			if _, err := rr.conn.WriteTo(wire, from); err != nil {
				rr.served.Add(-1)
				continue
			}
			rr.mu.Lock()
			rr.m.countRepairServed()
			rr.mu.Unlock()
		}
	}
}

// Served returns how many repair packets have been sent.
func (rr *RepairResponder) Served() int64 { return rr.served.Load() }

// Close stops the responder. It does not close the shared socket; it
// unblocks the read loop with a deadline and waits for it to exit.
func (rr *RepairResponder) Close() error {
	if rr.closed.Swap(true) {
		<-rr.done
		return nil
	}
	_ = rr.conn.SetReadDeadline(time.Now())
	<-rr.done
	_ = rr.conn.SetReadDeadline(time.Time{})
	return nil
}

// NACKConfig tunes a listener's repair-request loop.
type NACKConfig struct {
	// Sender is where repair requests are sent.
	Sender net.Addr
	// Interval is how often starved blocks are scanned for. Default 50ms.
	Interval time.Duration
	// MaxBackoff caps the per-block exponential backoff between repeated
	// requests for the same block. Default 2s.
	MaxBackoff time.Duration
	// MaxAttempts is how many requests are sent for one block before
	// giving up on it. Default 8.
	MaxAttempts int
}

func (c *NACKConfig) applyDefaults() {
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
}

// nackState tracks the capped-exponential schedule for one starved block.
type nackState struct {
	attempts int
	backoff  time.Duration
	nextAt   time.Time
}

// EnableNACK starts a background loop that polls the receiver for starved
// blocks (packets buffered, nothing authenticated — the signature is
// missing) and re-requests their authentication material from the sender,
// backing off exponentially per block and giving up after MaxAttempts.
// Call before meaningful traffic arrives; calling twice is an error.
func (l *Listener) EnableNACK(cfg NACKConfig) error {
	if cfg.Sender == nil {
		return errors.New("transport: NACK config needs a sender address")
	}
	cfg.applyDefaults()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("transport: listener closed")
	}
	if l.nackStop != nil {
		return errors.New("transport: NACK already enabled")
	}
	l.nackStop = make(chan struct{})
	l.nackDone = make(chan struct{})
	go l.nackLoop(cfg)
	return nil
}

// NACKsSent returns how many repair requests the listener has sent.
func (l *Listener) NACKsSent() int64 { return l.nacksSent.Load() }

func (l *Listener) nackLoop(cfg NACKConfig) {
	defer close(l.nackDone)
	ticker := time.NewTicker(cfg.Interval)
	defer ticker.Stop()
	state := make(map[uint64]*nackState)
	for {
		select {
		case <-l.nackStop:
			return
		case <-ticker.C:
		}
		l.mu.Lock()
		starved := l.rcv.Starved()
		m := l.m
		l.mu.Unlock()
		now := time.Now()
		live := make(map[uint64]bool, len(starved))
		for _, id := range starved {
			live[id] = true
			st, ok := state[id]
			if !ok {
				st = &nackState{backoff: cfg.Interval}
				state[id] = st
			}
			if st.attempts >= cfg.MaxAttempts || now.Before(st.nextAt) {
				continue
			}
			// Count before the write, like RepairResponder: the repair
			// this NACK triggers can land before WriteTo returns.
			l.nacksSent.Add(1)
			if _, err := l.conn.WriteTo(EncodeNACK(id, NACKSigRequest), cfg.Sender); err != nil {
				l.nacksSent.Add(-1)
			} else {
				m.countNACKSent()
			}
			st.attempts++
			st.nextAt = now.Add(st.backoff)
			st.backoff = min(2*st.backoff, cfg.MaxBackoff)
		}
		// Blocks that recovered (or were evicted) reset their schedule, so
		// a block ID starving again later starts fresh.
		for id := range state {
			if !live[id] {
				delete(state, id)
			}
		}
	}
}
