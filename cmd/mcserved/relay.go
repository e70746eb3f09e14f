// Relay mode: a mid-tree fan-out node. The relay subscribes to an
// upstream daemon (or another relay) like any receiver, but instead of
// verifying it retains every packet in bounded per-stream repair stores
// and re-serves the feed to its own downstream subscribers — so recovery
// traffic is absorbed one hop from the edge instead of converging on the
// signer. Downstream connections speak the same protocol as against the
// daemon: an optional resume hello replayed from the relay's retention,
// plus MCRQ repair requests answered from the same store. The relay never
// needs the signing key: packets are opaque, and a relay that tampers
// with them only produces material the receivers' verifiers reject.
package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mcauth/internal/obs"
	"mcauth/internal/packet"
	"mcauth/internal/stats"
	"mcauth/internal/transport"
)

// relayQueueDepth bounds each downstream subscriber's delivery queue; a
// subscriber that cannot drain it loses packets (counted), never the
// relay's upstream read loop.
const relayQueueDepth = 1 << 12

// relayDelivery is one packet queued for a downstream subscriber.
type relayDelivery struct {
	streamID uint64
	p        *packet.Packet
}

// relaySub is one downstream subscriber's queue.
type relaySub struct {
	ch chan relayDelivery
}

// relayNode holds the relay's state: per-stream repair retention, the
// high-water block mark used to resume the upstream subscription, and the
// live downstream subscriber set.
type relayNode struct {
	o    options
	reg  *obs.Registry
	tel  *telemetry
	dial func() (net.Conn, error)
	// mutate, when set (tests only), replaces every packet at ingest —
	// the poisoned-relay adversary: its store and its live forwarding both
	// serve the mutated packet.
	mutate func(streamID uint64, p *packet.Packet) *packet.Packet

	mu      sync.Mutex
	stores  map[uint64]*transport.RepairStore
	maxSeen map[uint64]uint64
	subs    map[*relaySub]struct{}

	forwarded, drops     int64
	sessions, reconnects int64
	// catchup and repairs are bumped concurrently by every downstream
	// conn's control reader, and counted before the write, so a tally
	// never misses a packet a downstream has already acted on.
	catchup, repairs atomic.Int64
}

func newRelayNode(o options, reg *obs.Registry, tel *telemetry, upstream string) *relayNode {
	return &relayNode{
		o:       o,
		reg:     reg,
		tel:     tel,
		dial:    func() (net.Conn, error) { return net.Dial("tcp", upstream) },
		stores:  make(map[uint64]*transport.RepairStore),
		maxSeen: make(map[uint64]uint64),
		subs:    make(map[*relaySub]struct{}),
	}
}

func (rn *relayNode) count(name string, n int64) {
	if rn.reg != nil {
		rn.reg.Counter(name).Add(n)
	}
}

// runUpstream dials the upstream feed and redials with capped jittered
// backoff until stop closes or the -reconnect budget is exhausted — the
// same contract as the receiver session, because from upstream's point of
// view the relay is just another subscriber.
func (rn *relayNode) runUpstream(stop <-chan struct{}) error {
	backoff := rn.o.reconnectBackoff
	rng := stats.NewRNG(uint64(time.Now().UnixNano()))
	fails := 0
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		conn, err := rn.dial()
		if err != nil {
			fails++
			if rn.o.reconnect >= 0 && fails > rn.o.reconnect {
				if rn.sessions == 0 {
					return fmt.Errorf("relay upstream %s: %w", rn.o.connect, err)
				}
				return nil
			}
			delay := backoff + time.Duration(rng.Intn(int(backoff/2)+1))
			select {
			case <-stop:
				return nil
			case <-time.After(delay):
			}
			backoff = min(2*backoff, maxReconnectBackoff)
			continue
		}
		fails = 0
		backoff = rn.o.reconnectBackoff
		if rn.sessions > 0 {
			rn.reconnects++
			rn.count("relay.reconnects", 1)
		}
		rn.sessions++
		rn.upstreamSession(conn, stop)
		if rn.o.reconnect == 0 {
			return nil
		}
	}
}

// upstreamSession runs one upstream connection: a resume hello carrying
// the relay's per-stream high-water marks (From 0 on a cold store, so a
// freshly restarted relay refills its retention from the daemon's), then
// ingest until the conn dies or stop closes.
func (rn *relayNode) upstreamSession(conn net.Conn, stop <-chan struct{}) {
	defer conn.Close()
	watcherDone := make(chan struct{})
	defer close(watcherDone)
	go func() {
		select {
		case <-stop:
			conn.Close()
		case <-watcherDone:
		}
	}()
	points := make([]transport.ResumePoint, 0, rn.o.streams)
	rn.mu.Lock()
	for id := uint64(1); id <= uint64(rn.o.streams); id++ {
		var from uint64
		if seen, ok := rn.maxSeen[id]; ok {
			from = seen + 1
		}
		points = append(points, transport.ResumePoint{StreamID: id, From: from})
	}
	rn.mu.Unlock()
	if err := transport.WriteHello(conn, points); err != nil {
		return
	}
	mr := transport.NewMuxFrameReader(conn)
	mr.SetMetrics(rn.reg)
	for {
		id, p, err := mr.ReadPacket()
		if err != nil {
			return
		}
		rn.ingest(id, p)
	}
}

// ingest stores one upstream packet in the stream's repair retention and
// fans it out to every downstream subscriber. Duplicates across a resume
// seam are detected by (block, index) and kept out of the store but still
// forwarded — downstream receivers discard them, and a restarted
// downstream may need exactly those.
func (rn *relayNode) ingest(streamID uint64, p *packet.Packet) {
	if rn.mutate != nil {
		p = rn.mutate(streamID, p)
	}
	rn.mu.Lock()
	st := rn.stores[streamID]
	if st == nil && rn.o.repair > 0 {
		st, _ = transport.NewRepairStore(rn.o.repair)
		rn.stores[streamID] = st
	}
	if seen, ok := rn.maxSeen[streamID]; !ok || p.BlockID > seen {
		rn.maxSeen[streamID] = p.BlockID
	}
	subs := make([]*relaySub, 0, len(rn.subs))
	for sub := range rn.subs {
		subs = append(subs, sub)
	}
	rn.mu.Unlock()
	if st != nil && len(st.Packets(p.BlockID, p.Index)) == 0 {
		st.Add(p.BlockID, []*packet.Packet{p})
	}
	rn.forwarded++
	rn.count("relay.forwarded", 1)
	d := relayDelivery{streamID: streamID, p: p}
	for _, sub := range subs {
		select {
		case sub.ch <- d:
		default:
			rn.drops++
			rn.count("relay.drops", 1)
		}
	}
}

func (rn *relayNode) subscribe() *relaySub {
	sub := &relaySub{ch: make(chan relayDelivery, relayQueueDepth)}
	rn.mu.Lock()
	rn.subs[sub] = struct{}{}
	rn.mu.Unlock()
	return sub
}

func (rn *relayNode) unsubscribe(sub *relaySub) {
	rn.mu.Lock()
	delete(rn.subs, sub)
	rn.mu.Unlock()
}

// retained returns the stream's replayable packets from block from on.
func (rn *relayNode) retained(streamID, from uint64) []*packet.Packet {
	rn.mu.Lock()
	st := rn.stores[streamID]
	rn.mu.Unlock()
	if st == nil {
		return nil
	}
	return st.Since(from)
}

// repairPackets answers one MCRQ request from the stream's store.
func (rn *relayNode) repairPackets(req transport.RepairRequest) []*packet.Packet {
	rn.mu.Lock()
	st := rn.stores[req.StreamID]
	rn.mu.Unlock()
	if st == nil {
		return nil
	}
	return st.Packets(req.BlockID, req.Index)
}

// serveConn runs one downstream subscriber: live forwarding from the
// subscriber queue, with a concurrent control reader answering resume
// hellos (replay from retention) and MCRQ repair requests from the same
// connection. All writes share one mutex and carry the write deadline, so
// a stalled downstream reader loses its conn instead of pinning the
// relay.
func (rn *relayNode) serveConn(conn net.Conn, stop <-chan struct{}) {
	sub := rn.subscribe()
	defer rn.unsubscribe(sub)
	mw := transport.NewMuxFrameWriter(conn)
	mw.SetMetrics(rn.reg)
	var wmu sync.Mutex
	write := func(streamID uint64, p *packet.Packet) error {
		wmu.Lock()
		defer wmu.Unlock()
		if rn.o.writeTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(rn.o.writeTimeout))
		}
		return mw.WritePacket(streamID, p)
	}
	ctlDone := make(chan struct{})
	// Closing the conn unblocks the control reader; joining it keeps every
	// per-conn goroutine inside the accept loop's WaitGroup.
	defer func() {
		conn.Close()
		<-ctlDone
	}()
	go func() {
		defer close(ctlDone)
		defer conn.Close() // control-plane death ends the whole session
		for {
			cf, err := transport.ReadControlFrame(conn)
			if err != nil {
				return
			}
			if cf.IsHello {
				for _, pt := range cf.Hello {
					for _, p := range rn.retained(pt.StreamID, pt.From) {
						rn.catchup.Add(1)
						if write(pt.StreamID, p) != nil {
							rn.catchup.Add(-1)
							return
						}
						rn.count("relay.catchup_served", 1)
					}
				}
				continue
			}
			for _, p := range rn.repairPackets(cf.Repair) {
				rn.repairs.Add(1)
				if write(cf.Repair.StreamID, p) != nil {
					rn.repairs.Add(-1)
					return
				}
				rn.count("relay.repairs_served", 1)
			}
		}
	}()
	for {
		select {
		case <-stop:
			return
		case <-ctlDone:
			return
		case d := <-sub.ch:
			if write(d.streamID, d.p) != nil {
				return
			}
		}
	}
}

// relayAcceptLoop serves downstream conns until the listener closes.
func (rn *relayNode) acceptLoop(ln net.Listener, stop <-chan struct{}) *sync.WaitGroup {
	var connWG sync.WaitGroup
	connWG.Add(1)
	go func() {
		defer connWG.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			connWG.Add(1)
			go func() {
				defer connWG.Done()
				rn.serveConn(conn, stop)
			}()
		}
	}()
	return &connWG
}

func (rn *relayNode) summary(w io.Writer) {
	fmt.Fprintf(w, "mcserved relay: forwarded %d packets, served %d catch-up + %d repairs, %d reconnects, %d queue drops\n",
		rn.forwarded, rn.catchup.Load(), rn.repairs.Load(), rn.reconnects, rn.drops)
}

func runRelay(o options, reg *obs.Registry, tel *telemetry, stdout io.Writer) error {
	if o.repair <= 0 {
		return errors.New("relay needs -repair > 0 (it exists to serve catch-up and repairs from retention)")
	}
	if reg == nil {
		reg = obs.NewRegistry()
		tel.bindRegistry(reg)
	}
	rn := newRelayNode(o, reg, tel, o.connect)
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "mcserved relay: %s -> serving on %s (%d streams)\n", o.connect, ln.Addr(), o.streams)

	stop := make(chan struct{})
	connWG := rn.acceptLoop(ln, stop)
	upDone := make(chan error, 1)
	go func() { upDone <- rn.runUpstream(stop) }()

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(interrupt)
	var timeout <-chan time.Time
	if o.duration > 0 {
		timeout = time.After(o.duration)
	}
	var upErr error
	select {
	case <-interrupt:
	case <-timeout:
	case upErr = <-upDone:
		// Upstream gave up (reconnect budget exhausted): drain and exit.
		upDone = nil
	}
	close(stop)
	ln.Close()
	connWG.Wait()
	if upDone != nil {
		upErr = <-upDone
	}
	rn.summary(stdout)
	return upErr
}
