package main

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcauth/internal/fault"
	"mcauth/internal/obs"
	"mcauth/internal/packet"
	"mcauth/internal/server"
	"mcauth/internal/stream"
	"mcauth/internal/transport"
)

// relayTestOptions is the shared small topology: a handful of streams so
// daemon, relay and receiver all build matching schemes, with unlimited
// receiver redials for the kill tests.
func relayTestOptions(t *testing.T, key string) options {
	t.Helper()
	o, err := parseOptions([]string{
		"-listen", "ignored", "-streams", "4", "-n", "8",
		"-scheme", "emss", "-rate", "200us", "-batch", "16", "-flush", "30ms",
		"-repair", "64", "-key", key,
		"-reconnect", "-1", "-reconnect-backoff", "10ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// testDaemon is an in-process daemon incarnation: server, listener,
// publishers.
type testDaemon struct {
	srv    *server.Server
	ln     net.Listener
	stop   chan struct{}
	pubs   *sync.WaitGroup
	connWG *sync.WaitGroup
}

func startTestDaemon(t *testing.T, o options, reg *obs.Registry, tel *telemetry, addr string) *testDaemon {
	t.Helper()
	srv, err := startServer(o, reg, tel)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	stop := make(chan struct{})
	return &testDaemon{
		srv:    srv,
		ln:     ln,
		stop:   stop,
		pubs:   publishAll(srv, o, stop),
		connWG: acceptLoop(srv, ln, reg, tel.spanRing(), o.writeTimeout, nil),
	}
}

func (d *testDaemon) close(t *testing.T) {
	t.Helper()
	close(d.stop)
	d.pubs.Wait()
	if err := d.srv.Close(); err != nil {
		t.Fatal(err)
	}
	d.ln.Close()
	d.connWG.Wait()
}

// testRelay is an in-process relay incarnation between the daemon and the
// downstream listener.
type testRelay struct {
	rn     *relayNode
	ln     net.Listener
	stop   chan struct{}
	upDone chan error
	connWG *sync.WaitGroup
}

func startTestRelay(t *testing.T, o options, reg *obs.Registry, tel *telemetry, upstream, addr string,
	mutate func(uint64, *packet.Packet) *packet.Packet) *testRelay {
	t.Helper()
	rn := newRelayNode(o, reg, tel, upstream)
	rn.mutate = mutate
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	tr := &testRelay{rn: rn, ln: ln, stop: stop, upDone: make(chan error, 1)}
	tr.connWG = rn.acceptLoop(ln, stop)
	go func() { tr.upDone <- rn.runUpstream(stop) }()
	return tr
}

// kill tears the relay down mid-flight; all relay goroutines have exited
// when it returns, so the node's tallies are safe to read.
func (tr *testRelay) kill(t *testing.T) {
	t.Helper()
	close(tr.stop)
	tr.ln.Close()
	tr.connWG.Wait()
	if err := <-tr.upDone; err != nil {
		t.Fatal(err)
	}
}

// countingAuth wraps a receiver's onAuth hook with an atomic tally the
// test goroutine can poll while the session runs.
func countingAuth(count *atomic.Int64, inner func(uint64, stream.Authenticated) error) func(uint64, stream.Authenticated) error {
	return func(streamID uint64, a stream.Authenticated) error {
		if inner != nil {
			if err := inner(streamID, a); err != nil {
				return err
			}
		}
		if len(a.Payload) > 0 {
			count.Add(1)
		}
		return nil
	}
}

// waitAuthed polls until the receiver has authenticated at least want
// messages or the deadline passes.
func waitAuthed(count *atomic.Int64, want int64, deadline time.Duration) bool {
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		if count.Load() >= want {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// TestRelayServesDownstream: daemon -> relay -> receiver in one process.
// The receiver connects only to the relay and must verify live traffic;
// an MCRQ repair request against the relay's store must be answered with
// the block's signature packets without touching the daemon.
func TestRelayServesDownstream(t *testing.T) {
	o := relayTestOptions(t, "test-relay-e2e")
	reg := obs.NewRegistry()
	tel := newTelemetry(o, reg)

	daemon := startTestDaemon(t, o, reg, tel, "127.0.0.1:0")
	relay := startTestRelay(t, o, reg, tel, daemon.ln.Addr().String(), "127.0.0.1:0", nil)
	relayAddr := relay.ln.Addr().String()

	rs, err := newReceiverSession(o, reg, tel, relayAddr)
	if err != nil {
		t.Fatal(err)
	}
	cv := &chaosVerifier{seen: make(map[string]string)}
	var authed atomic.Int64
	rs.onAuth = countingAuth(&authed, cv.check)
	recvStop := make(chan struct{})
	recvDone := make(chan error, 1)
	go func() { recvDone <- rs.run(recvStop) }()

	if !waitAuthed(&authed, 32, 10*time.Second) {
		t.Fatalf("receiver authenticated only %d messages through the relay", authed.Load())
	}

	// A repair request straight at the relay: pick a retained block whose
	// signature class has already arrived (batched signing attaches the
	// signature packets after the data, so the newest block may not have
	// them yet).
	var blockID uint64
	found := false
	for end := time.Now().Add(5 * time.Second); !found && time.Now().Before(end); {
		relay.rn.mu.Lock()
		newest := relay.rn.maxSeen[1]
		relay.rn.mu.Unlock()
		for b := newest; b > 0 && !found; b-- {
			probe := transport.RepairRequest{StreamID: 1, BlockID: b, Index: transport.NACKSigRequest}
			if len(relay.rn.repairPackets(probe)) > 0 {
				blockID, found = b, true
			}
		}
		if !found {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !found {
		t.Fatal("relay retains no block with signature packets")
	}
	conn, err := net.Dial("tcp", relayAddr)
	if err != nil {
		t.Fatal(err)
	}
	req := transport.RepairRequest{StreamID: 1, BlockID: blockID, Index: transport.NACKSigRequest}
	if err := transport.WriteRepairRequest(conn, req); err != nil {
		t.Fatal(err)
	}
	mr := transport.NewMuxFrameReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	sigSeen := false
	// The conn also receives live forwarding; scan until a signature
	// packet of the requested block shows up.
	for i := 0; i < 4096 && !sigSeen; i++ {
		id, p, err := mr.ReadPacket()
		if err != nil {
			break
		}
		if id == req.StreamID && p.BlockID == blockID && len(p.Signature) > 0 {
			sigSeen = true
		}
	}
	conn.Close()
	if !sigSeen {
		t.Error("MCRQ repair against the relay never produced the block's signature packet")
	}

	daemon.close(t)
	time.Sleep(100 * time.Millisecond)
	close(recvStop)
	relay.kill(t)
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}
	if cv.forged > 0 {
		t.Fatalf("%d forged authentications through the relay", cv.forged)
	}
	if relay.rn.repairs.Load() == 0 {
		t.Error("relay served no repairs")
	}
	if relay.rn.forwarded == 0 {
		t.Fatal("relay forwarded nothing")
	}
	if got := reg.Counter("relay.forwarded").Value(); got != relay.rn.forwarded {
		t.Fatalf("relay.forwarded counter %d != node tally %d", got, relay.rn.forwarded)
	}
}

// TestRelayChaosSoak is the mid-tree kill: the daemon stays up the whole
// soak while the relay between it and the receiver is killed and
// restarted (cold store) every cycle. The receiver must reconnect through
// the relay's address, the restarted relay must refill its retention from
// the daemon (its upstream resume hello asks From 0 on a cold store) and
// replay catch-up to the receiver's hello cursors, and nothing forged or
// forked may authenticate across any kill.
func TestRelayChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("relay chaos soak is a multi-second wall-clock test")
	}
	o := relayTestOptions(t, "test-relay-chaos")
	reg := obs.NewRegistry()
	tel := newTelemetry(o, reg)

	daemon := startTestDaemon(t, o, reg, tel, "127.0.0.1:0")
	upstreamAddr := daemon.ln.Addr().String()

	// Bind once to fix the relay's downstream address across incarnations.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	relayAddr := probe.Addr().String()
	probe.Close()

	cv := &chaosVerifier{seen: make(map[string]string)}
	var authed atomic.Int64
	rs, err := newReceiverSession(o, reg, tel, relayAddr)
	if err != nil {
		t.Fatal(err)
	}
	rs.onAuth = countingAuth(&authed, cv.check)
	recvStop := make(chan struct{})
	recvDone := make(chan error, 1)
	go func() { recvDone <- rs.run(recvStop) }()

	const cycles = 4
	var catchupTotal int64
	for cycle := 0; cycle < cycles; cycle++ {
		relay := startTestRelay(t, o, reg, tel, upstreamAddr, relayAddr, nil)
		time.Sleep(400 * time.Millisecond)
		relay.kill(t)
		catchupTotal += relay.rn.catchup.Load()
		// Downtime before the next incarnation: the receiver backs off and
		// falls behind the still-publishing daemon, and the restarted relay
		// refills its cold store from upstream before the receiver's resume
		// hello lands — the catch-up path this soak exists to exercise.
		time.Sleep(150 * time.Millisecond)
	}
	// One final incarnation drains the tail, so the receiver is not left
	// mid-reconnect when we stop it.
	relay := startTestRelay(t, o, reg, tel, upstreamAddr, relayAddr, nil)
	time.Sleep(400 * time.Millisecond)

	daemon.close(t)
	time.Sleep(200 * time.Millisecond)
	close(recvStop)
	relay.kill(t)
	catchupTotal += relay.rn.catchup.Load()
	if err := <-recvDone; err != nil {
		t.Fatalf("receiver: %v", err)
	}

	if cv.forged > 0 {
		t.Fatalf("%d forged or forked authentications across the relay kills", cv.forged)
	}
	if rs.sessions < 2 || rs.reconnects < 1 {
		t.Fatalf("receiver never reconnected through a relay kill (%d sessions) — the soak proved nothing", rs.sessions)
	}
	if catchupTotal == 0 {
		t.Fatal("no downstream resume catch-up was served by any relay incarnation")
	}
	if authed.Load() == 0 {
		t.Fatal("nothing authenticated through the soak")
	}
}

// TestRelayForgedRepair is the process-level adversarial invariant: a
// poisoned relay whose store and live forwarding both serve forged
// payloads on one stream must yield zero authenticated messages on that
// stream — and must not disturb the others. The relay holds no signing
// key, so a forgery cannot carry a valid hash chain or signature.
func TestRelayForgedRepair(t *testing.T) {
	o := relayTestOptions(t, "test-relay-forged")
	reg := obs.NewRegistry()
	tel := newTelemetry(o, reg)

	daemon := startTestDaemon(t, o, reg, tel, "127.0.0.1:0")
	const poisoned = uint64(1)
	var forgedInjected atomic.Int64
	mutate := func(streamID uint64, p *packet.Packet) *packet.Packet {
		if streamID != poisoned || len(p.Payload) == 0 {
			return p
		}
		fp := *p
		fp.Payload = fault.ForgedPayload(42 + p.BlockID<<16 + uint64(p.Index))
		forgedInjected.Add(1)
		return &fp
	}
	relay := startTestRelay(t, o, reg, tel, daemon.ln.Addr().String(), "127.0.0.1:0", mutate)

	rs, err := newReceiverSession(o, reg, tel, relay.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var authed, poisonedAuthed atomic.Int64
	rs.onAuth = countingAuth(&authed, func(streamID uint64, a stream.Authenticated) error {
		if fault.IsForgedPayload(a.Payload) {
			return fmt.Errorf("forged payload authenticated on stream %d block %d index %d", streamID, a.BlockID, a.Index)
		}
		if streamID == poisoned && len(a.Payload) > 0 {
			poisonedAuthed.Add(1)
		}
		return nil
	})
	recvStop := make(chan struct{})
	recvDone := make(chan error, 1)
	go func() { recvDone <- rs.run(recvStop) }()

	if !waitAuthed(&authed, 24, 10*time.Second) {
		t.Fatalf("healthy streams authenticated only %d messages", authed.Load())
	}
	daemon.close(t)
	time.Sleep(100 * time.Millisecond)
	close(recvStop)
	relay.kill(t)
	if err := <-recvDone; err != nil {
		t.Fatalf("receiver: %v", err)
	}
	if forgedInjected.Load() == 0 {
		t.Fatal("the relay never forged anything; the scenario is vacuous")
	}
	if poisonedAuthed.Load() != 0 {
		t.Fatalf("security invariant violated: %d messages authenticated on the poisoned stream", poisonedAuthed.Load())
	}
	if authed.Load() == 0 {
		t.Fatal("healthy streams authenticated nothing")
	}
}

// TestRelayOptionValidation pins the -relay flag contract.
func TestRelayOptionValidation(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-relay"},
		{"-relay", "-connect", "x:1"},
		{"-relay", "-listen", ":0"},
		{"-relay", "-demo", "-connect", "x:1", "-listen", ":0"},
		{"-relay", "-chaos", "-connect", "x:1", "-listen", ":0"},
		{"-relay", "-connect", "x:1", "-listen", ":0", "-repair", "0"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
