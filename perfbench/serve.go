package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/obs"
	"mcauth/internal/scheme"
	"mcauth/internal/scheme/authtree"
	"mcauth/internal/scheme/emss"
	"mcauth/internal/scheme/signeach"
	"mcauth/internal/server"
	"mcauth/internal/stream"
	"mcauth/internal/transport"
	"mcauth/internal/verifier"
)

// The serving settings mirror cmd/mcserved's defaults (daemon with a
// metrics registry attached, receiver with the fast path on), so the
// benchmark serves the traffic the daemon serves.
const (
	numStreams     = 16
	blockN         = 8
	batchSize      = 64
	flushInterval  = 50 * time.Millisecond
	subQueue       = 1 << 16
	repairBlocks   = 64
	writeTimeout   = 10 * time.Second
	helloTimeout   = 2 * time.Second
	recvBlocks     = 64
	verifyBatch    = 32
	cacheEntries   = 1024
	window         = 4096            // closed loop: published but not yet authenticated everywhere
	refill         = 512             // a full window waits until this many slots free up: one batch signature's worth
	chunkMsgs      = 4096            // closed-loop messages sweep_s times
	latWindow      = 2 * time.Second // open loop: pub_auth_* take one p50 and p99 per 2 s
	rateWindow     = 2 * time.Second // closed loop: auth_msgs_per_s takes one rate per ~2 s
	minRateWindows = 4               // closed loop: fewest rate windows, for short runs
	setupRepeats   = 41              // setup_s is the median of this many set-ups
	settleTime     = time.Second     // open-loop traffic around the measured open loop
	stallTimeout   = 15 * time.Second
	// openRate is the open loop's rate in msg/s, well below both serving
	// workloads' closed-loop capacity so that the p99 measures the serving
	// path rather than a saturated queue. At 2000 msg/s serve_chained
	// saturated whenever the shared host lent it a third fewer cycles
	// (its capacity fell from ~3200 to ~2100 msg/s), and
	// serve_signed_fanout's p99 ranged 116-462 ms over ten runs. At 1000
	// msg/s nearly every block is padded out at a flush tick, and whether
	// its root makes that tick's batch signature or the next one's decided
	// the tail: p99 over 2 s windows flipped between ~158 and ~195 ms. At
	// 1250 msg/s it held at 177-186 ms.
	openRate = 1250
)

// serveShape is one serving workload's traffic.
type serveShape struct {
	subscribers int
	payload     int
	build       func(id uint64, signer crypto.Signer) (scheme.Scheme, error)
}

var serveShapes = map[string]serveShape{
	"serve_chained": {
		subscribers: 1,
		payload:     64,
		build: func(_ uint64, signer crypto.Signer) (scheme.Scheme, error) {
			return emss.New(emss.Config{N: blockN, M: 2, D: 1}, signer)
		},
	},
	"serve_signed_fanout": {
		subscribers: 2,
		payload:     512,
		build: func(id uint64, signer crypto.Signer) (scheme.Scheme, error) {
			if id%2 == 1 {
				return authtree.New(blockN, signer)
			}
			return signeach.New(blockN, signer)
		},
	},
}

// streamOf maps a global message index to its stream: messages go to the
// streams round-robin.
func streamOf(g uint64) uint64 { return 1 + g%numStreams }

// clock reads the run's monotonic clock in nanoseconds, always positive so
// zero can mark an unset table cell.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) + 1 }

// live is the state the generator and the receivers share while running.
type live struct {
	issued atomic.Uint64 // messages handed to Publish (or about to be)
	// wakeBelow is positive while the generator waits: a receiver pokes
	// wake once fewer than wakeBelow published messages are still
	// unauthenticated at it. Poking only then keeps the generator from
	// being scheduled after every authentication, next to the receiver.
	wakeBelow atomic.Int64
	wake      chan struct{}
}

// stack is one set-up serving system: server, listener, and per
// subscriber a server-side connection writer and a verifying receiver.
type stack struct {
	shape   serveShape
	seed    uint64
	clk     clock
	traced  bool
	live    *live
	reg     *obs.Registry
	srv     *server.Server
	ln      net.Listener
	shared  *verifier.SharedCache
	sigs    *crypto.SigCache
	writers []*subWriter
	readers []*subReader
	wg      sync.WaitGroup
}

// newStack builds keys and schemes, starts the server, opens every stream
// and connects every subscriber over loopback TCP.
func newStack(shape serveShape, seed uint64, clk clock, traced bool) (*stack, error) {
	st := &stack{
		shape:  shape,
		seed:   seed,
		clk:    clk,
		traced: traced,
		live:   &live{wake: make(chan struct{}, 1)},
		reg:    obs.NewRegistry(),
	}
	signer := crypto.NewSignerFromString(fmt.Sprintf("perfbench-%d", seed))
	srv, err := server.New(server.Config{
		Signer:             signer,
		BatchSize:          batchSize,
		FlushInterval:      flushInterval,
		MaxSubscriberQueue: subQueue,
		Metrics:            st.reg,
		RepairBlocks:       repairBlocks,
	})
	if err != nil {
		return nil, err
	}
	st.srv = srv
	for id := uint64(1); id <= numStreams; id++ {
		id := id
		if err := srv.OpenStream(id, func(s crypto.Signer) (scheme.Scheme, error) { return shape.build(id, s) }); err != nil {
			st.close()
			return nil, err
		}
	}
	if st.shared, err = verifier.NewSharedCache(cacheEntries); err != nil {
		st.close()
		return nil, err
	}
	st.shared.SetMetrics(st.reg)
	if st.sigs, err = crypto.NewSigCache(cacheEntries); err != nil {
		st.close()
		return nil, err
	}
	if st.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		st.close()
		return nil, err
	}
	recvSigner := crypto.BatchCapable(signer)
	for i := 0; i < shape.subscribers; i++ {
		if err := st.connect(i, recvSigner); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// connect dials one subscriber and starts its writer and reader, the two
// halves of mcserved's serveConn and receiverSession.session.
func (st *stack) connect(i int, recvSigner crypto.Signer) error {
	cconn, err := net.Dial("tcp", st.ln.Addr().String())
	if err != nil {
		return err
	}
	sconn, err := st.ln.Accept()
	if err != nil {
		cconn.Close()
		return err
	}
	sub, err := st.srv.Subscribe()
	if err != nil {
		cconn.Close()
		sconn.Close()
		return err
	}
	dmx, err := stream.NewDemux(func(id uint64) (*stream.Receiver, error) {
		s, err := st.shape.build(id, recvSigner)
		if err != nil {
			return nil, err
		}
		return stream.NewReceiver(s, recvBlocks)
	}, numStreams)
	if err != nil {
		cconn.Close()
		sconn.Close()
		return err
	}
	q, err := crypto.NewBatchVerifyQueue(verifyBatch, st.sigs)
	if err != nil {
		cconn.Close()
		sconn.Close()
		return err
	}
	q.SetMetrics(st.reg)
	dmx.SetVerifyFastPath(st.shared, q)
	if err := transport.WriteHello(cconn, nil); err != nil {
		cconn.Close()
		sconn.Close()
		return err
	}
	_ = sconn.SetReadDeadline(time.Now().Add(helloTimeout))
	if _, err := transport.ReadHello(sconn); err != nil {
		cconn.Close()
		sconn.Close()
		return fmt.Errorf("subscriber %d hello: %w", i, err)
	}
	_ = sconn.SetReadDeadline(time.Time{})

	w := &subWriter{sub: sub, conn: sconn, reg: st.reg, clk: st.clk, traced: st.traced, size: st.shape.payload}
	r := &subReader{
		conn:   cconn,
		reg:    st.reg,
		dmx:    dmx,
		q:      q,
		clk:    st.clk,
		traced: st.traced,
		live:   st.live,
		chk:    payloadChecker{seed: st.seed, size: st.shape.payload},
	}
	st.writers = append(st.writers, w)
	st.readers = append(st.readers, r)
	st.wg.Add(2)
	go func() {
		defer st.wg.Done()
		w.run()
	}()
	go func() {
		defer st.wg.Done()
		r.run()
	}()
	return nil
}

// close drains the server (which ends every subscriber feed, so writers
// close their connections and readers see EOF) and waits for every
// goroutine the stack started.
func (st *stack) close() {
	if st.srv != nil {
		_ = st.srv.Close() // a second Close reports ErrClosed; nothing to do
	}
	st.wg.Wait()
	if st.ln != nil {
		st.ln.Close()
	}
}

// writeCall is one timed MuxFrameWriter.WritePacket call (traced runs).
type writeCall struct {
	seen, start, end int64
	depth            int64
	stream, block    uint64
	g                int64 // message index carried, -1 for padding
}

// subWriter forwards a subscriber's feed onto its connection.
type subWriter struct {
	sub    *server.Subscriber
	conn   net.Conn
	reg    *obs.Registry
	clk    clock
	traced bool
	size   int
	err    error
	calls  []writeCall
}

func (w *subWriter) run() {
	defer w.conn.Close()
	mw := transport.NewMuxFrameWriter(w.conn)
	mw.SetMetrics(w.reg)
	for d := range w.sub.C() {
		var c writeCall
		if w.traced {
			c.seen = w.clk.now()
			c.depth = int64(len(w.sub.C()))
		}
		_ = w.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if w.traced {
			c.start = w.clk.now()
		}
		if err := mw.WritePacket(d.StreamID, d.Packet); err != nil {
			w.err = err
			for range w.sub.C() {
			}
			return
		}
		if w.traced {
			c.end = w.clk.now()
			c.stream, c.block, c.g = d.StreamID, d.Packet.BlockID, -1
			if g, ok := payloadIndex(d.Packet.Payload, w.size); ok {
				c.g = int64(g)
			}
			w.calls = append(w.calls, c)
		}
	}
}

// recvIter is one timed receiver-loop iteration (traced runs): read,
// ingest, optional resolve, drain, then the benchmark's own checks.
type recvIter struct {
	readStart, readEnd, ingestEnd int64
	resolveStart, resolveEnd      int64 // zero when no Resolve ran
	drainEnd, checkEnd            int64
	stream, block                 uint64
	g                             int64
}

// subReader is a verifying subscriber: mcserved's receiver loop plus the
// benchmark's exactly-once and payload checks.
type subReader struct {
	conn   net.Conn
	reg    *obs.Registry
	dmx    *stream.Demux
	q      *crypto.BatchVerifyQueue
	clk    clock
	traced bool
	live   *live
	chk    payloadChecker

	authCount atomic.Int64
	warm      atomic.Bool

	packets, padding int64
	maxBlock         [numStreams + 1]int64
	authAt, count    column
	block            column
	iters            []recvIter
	violations       []string
	nViolations      int
}

func (r *subReader) violate(format string, args ...any) {
	r.nViolations++
	if len(r.violations) < 8 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

func (r *subReader) run() {
	defer r.conn.Close()
	mr := transport.NewMuxFrameReader(r.conn)
	mr.SetMetrics(r.reg)
	for i := range r.maxBlock {
		r.maxBlock[i] = -1
	}
	warmStreams := 0
	for {
		var it recvIter
		if r.traced {
			it.readStart = r.clk.now()
		}
		id, p, err := mr.ReadPacket()
		if err != nil {
			// EOF once the server has drained: settle what is pending.
			if r.q.Pending() > 0 {
				r.q.Resolve()
			}
			r.handle(r.dmx.DrainDeferred())
			return
		}
		if r.traced {
			it.readEnd = r.clk.now()
		}
		r.packets++
		auths, err := r.dmx.Ingest(id, p, time.Now())
		if err != nil {
			r.violate("ingest stream %d block %d: %v", id, p.BlockID, err)
			continue
		}
		if r.traced {
			it.ingestEnd = r.clk.now()
		}
		if r.packets%verifyBatch == 0 && r.q.Pending() > 0 {
			if r.traced {
				it.resolveStart = r.clk.now()
			}
			r.q.Resolve()
			if r.traced {
				it.resolveEnd = r.clk.now()
			}
		}
		auths = append(auths, r.dmx.DrainDeferred()...)
		if r.traced {
			it.drainEnd = r.clk.now()
		}
		r.handle(auths)
		if id >= 1 && id <= numStreams && int64(p.BlockID) > r.maxBlock[id] {
			if r.maxBlock[id] < recvBlocks-1 && int64(p.BlockID) >= recvBlocks-1 {
				if warmStreams++; warmStreams == numStreams {
					r.warm.Store(true)
				}
			}
			r.maxBlock[id] = int64(p.BlockID)
		}
		if r.traced {
			it.checkEnd = r.clk.now()
			it.stream, it.block, it.g = id, p.BlockID, -1
			if g, ok := payloadIndex(p.Payload, r.chk.size); ok {
				it.g = int64(g)
			}
			r.iters = append(r.iters, it)
		}
	}
}

// handle checks and records a batch of authenticated messages: each must
// carry exactly the re-derived bytes of a message already published on
// that stream, and authenticate only once.
func (r *subReader) handle(auths []stream.StreamAuthenticated) {
	if len(auths) == 0 {
		return
	}
	now := r.clk.now()
	issued := r.live.issued.Load()
	var n int64
	for _, a := range auths {
		if len(a.Payload) == 0 {
			r.padding++ // flush-deadline padding carries no message
			continue
		}
		g, ok := r.chk.check(a.Payload)
		switch {
		case !ok:
			r.violate("stream %d block %d index %d: payload differs from the re-derived bytes", a.StreamID, a.BlockID, a.Index)
			continue
		case g >= issued:
			r.violate("message %d authenticated but only %d were published", g, issued)
			continue
		case streamOf(g) != a.StreamID:
			r.violate("message %d authenticated on stream %d, published on %d", g, a.StreamID, streamOf(g))
			continue
		}
		if r.count.add(g, 1) > 1 {
			continue // counted as a failure by the exactly-once check
		}
		r.authAt.set(g, now)
		if r.traced {
			r.block.set(g, int64(a.BlockID))
		}
		n++
	}
	if n == 0 {
		return
	}
	authed := r.authCount.Add(n)
	if wb := r.live.wakeBelow.Load(); wb > 0 && int64(issued)-authed < wb {
		select {
		case r.live.wake <- struct{}{}:
		default:
		}
	}
}

// errStall reports a serving pipeline that stopped authenticating.
var errStall = errors.New("no message authenticated for " + stallTimeout.String())
