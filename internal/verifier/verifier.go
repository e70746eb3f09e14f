// Package verifier implements the receiver-side verification engine for
// hash-chained (signature-amortizing) schemes. It is scheme-agnostic: any
// chained topology — Rohatgi's chain, EMSS, augmented chains, or graphs
// produced by the Section 5 construction toolkit — verifies with the same
// engine, because the wire packets themselves carry the dependence edges.
//
// The engine maintains exactly the two buffers the paper attributes to a
// receiver: a hash buffer (trusted digests received ahead of their packets)
// and a message buffer (packets received ahead of their authentication
// information). Packets become authentic when their digest matches a
// trusted digest; trusted digests originate from the block signature and
// propagate along dependence edges.
//
// The engine is observable: it always measures arrival-to-authentication
// latency (the paper's receiver delay) into Stats.TimeToAuth, and can
// additionally emit per-packet lifecycle events and registry metrics when
// wired up via SetTracer / SetMetrics (see internal/obs).
package verifier

import (
	"errors"
	"fmt"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/obs"
	"mcauth/internal/packet"
)

// Event reports a packet newly authenticated by an Ingest call.
type Event struct {
	Index   uint32
	Payload []byte
}

// Stats summarizes a verifier's lifetime.
type Stats struct {
	Received      int // packets ingested
	Authenticated int // packets proven authentic
	Rejected      int // packets whose digest or signature failed (tampering)
	Unsafe        int // TESLA only: packets dropped by the safety condition
	Duplicates    int // packets ingested more than once

	// MsgBufferHighWater is the peak number of packets buffered while
	// awaiting authentication information (the paper's message buffer).
	MsgBufferHighWater int
	// HashBufferHighWater is the peak number of trusted digests held for
	// packets not yet arrived (the paper's hash buffer).
	HashBufferHighWater int
	// DroppedOverflow counts packets discarded because the message
	// buffer hit its configured cap (the denial-of-service guard; the
	// paper notes receiver buffering "is subject to Denial of Service
	// attacks").
	DroppedOverflow int

	// TimeToAuth is the histogram of arrival-to-authentication latency
	// over this verifier's authenticated packets, in nanoseconds — the
	// measured receiver delay of the paper, recorded inside the engine
	// so transport-driven runs get receiver-delay numbers too.
	TimeToAuth obs.HistogramData

	// CacheHits counts packets accepted straight from a SharedCache
	// (content digest already proven authentic by another subscriber).
	CacheHits int
	// PendingSignature counts signature packets currently awaiting a
	// deferred batch-verify verdict.
	PendingSignature int
}

// Option configures a Chained verifier.
type Option interface {
	apply(*Chained)
}

type maxBufferedOption int

func (o maxBufferedOption) apply(v *Chained) { v.maxBuffered = int(o) }

// WithMaxBuffered caps the number of packets held while awaiting
// authentication information; packets arriving with the buffer full are
// dropped and counted in Stats.DroppedOverflow. Zero (the default) means
// unbounded.
func WithMaxBuffered(n int) Option { return maxBufferedOption(n) }

// SetMaxBuffered applies the WithMaxBuffered cap after construction — the
// hook layers that obtain verifiers from scheme factories (netsim, stream)
// use to bound buffering under adversarial floods. Negative values are
// ignored.
func (v *Chained) SetMaxBuffered(n int) {
	if n >= 0 {
		v.maxBuffered = n
	}
}

// metrics caches the registry instruments the engine updates, looked up
// once at SetMetrics time so Ingest never touches the registry's lock.
type metrics struct {
	reg           *obs.Registry
	authenticated *obs.Counter
	rejected      *obs.Counter
	duplicates    *obs.Counter
	// overflow is registered lazily on the first eviction so unbounded
	// (and never-overflowing) runs keep their metrics dump unchanged.
	overflow      *obs.Counter
	msgHighWater  *obs.Histogram
	hashHighWater *obs.Histogram
	timeToAuth    *obs.Histogram
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		return nil
	}
	return &metrics{
		reg:           reg,
		authenticated: reg.Counter("verifier.authenticated"),
		rejected:      reg.Counter("verifier.rejected"),
		duplicates:    reg.Counter("verifier.duplicates"),
		msgHighWater:  reg.Histogram("verifier.msg_buffer_high_water"),
		hashHighWater: reg.Histogram("verifier.hash_buffer_high_water"),
		timeToAuth:    reg.Histogram("verifier.time_to_auth_ns"),
	}
}

// buffered is one message-buffer entry: the packet plus its arrival time,
// kept so the cascade can measure arrival-to-authentication latency.
type bufferedPacket struct {
	p       *packet.Packet
	arrived time.Time
}

// slot is the engine's state for one packet index.
type slot struct {
	digest    crypto.Digest  // proven-authentic digest; valid when trusted
	buffered  bufferedPacket // message-buffer entry; empty when p is nil
	trusted   bool
	authentic bool
}

// Chained verifies one block of a hash-chained scheme.
type Chained struct {
	blockID uint64
	n       uint32
	pub     crypto.Verifier

	// slots is indexed by packet index 1..n (slot 0 unused). The two
	// running counts are the paper's two receiver buffers: packets held
	// awaiting authentication information, and trusted digests whose
	// packets have not authenticated yet.
	slots         []slot
	nBuffered     int
	pendingHashes int
	queue         []*packet.Packet // accept's cascade scratch

	maxBuffered int // 0 = unbounded
	stats       Stats

	// Receiver fast path (see SetSharedCache / SetBatchVerify).
	cache    *SharedCache
	streamID uint64
	batchQ   *crypto.BatchVerifyQueue
	sink     func([]Event)
	// pendingSig holds signature packets awaiting a deferred verdict. A
	// slice per index, so an attacker racing a forged signature packet
	// ahead of the genuine one cannot occupy the index and starve it.
	pendingSig map[uint32][]bufferedPacket

	tracer obs.Tracer
	m      *metrics

	// Causal span tracing (see SetSpans). spans is nil-safe and checks an
	// atomic enable flag before any work, so the disabled cost is one
	// predictable branch per lifecycle transition.
	spans      *obs.SpanRing
	spanStream uint64
}

var _ obs.Instrumented = (*Chained)(nil)

// NewChained creates a verifier for one block of n packets signed by the
// holder of pub.
func NewChained(blockID uint64, n int, pub crypto.Verifier, opts ...Option) (*Chained, error) {
	if n < 1 {
		return nil, fmt.Errorf("verifier: block size %d must be >= 1", n)
	}
	if pub == nil {
		return nil, errors.New("verifier: nil public key")
	}
	v := &Chained{
		blockID: blockID,
		n:       uint32(n),
		pub:     pub,
		slots:   make([]slot, n+1),
	}
	for _, o := range opts {
		o.apply(v)
	}
	if v.maxBuffered < 0 {
		return nil, fmt.Errorf("verifier: negative buffer cap %d", v.maxBuffered)
	}
	return v, nil
}

// SetTracer implements obs.Instrumented: subsequent ingests emit lifecycle
// events to t (nil disables tracing).
func (v *Chained) SetTracer(t obs.Tracer) { v.tracer = t }

// SetMetrics implements obs.Instrumented: subsequent ingests update
// verifier.* instruments in reg (nil disables).
func (v *Chained) SetMetrics(reg *obs.Registry) { v.m = newMetrics(reg) }

// SetSharedCache attaches the cross-subscriber verification cache: packet
// digests are memoized through it, a packet whose digest the cache has
// proven authentic for (streamID, block) is accepted without re-verifying
// its signature or digest chain, and every authentication this verifier
// performs is published back. streamID must identify the stream (and so
// the signing key) this verifier serves. nil detaches.
func (v *Chained) SetSharedCache(c *SharedCache, streamID uint64) {
	v.cache = c
	v.streamID = streamID
}

// SetBatchVerify defers signature-packet verification to q: Ingest parks
// such packets as pending-signature and enqueues the check; when the
// queue resolves (threshold or explicit Resolve), an accepting verdict
// authenticates the packet and delivers its cascade of events to sink,
// while a rejecting verdict counts a rejection. Verdicts must resolve on
// the goroutine that ingests (the engine itself is not thread-safe). nil
// q restores synchronous verification; sink is required otherwise.
func (v *Chained) SetBatchVerify(q *crypto.BatchVerifyQueue, sink func([]Event)) {
	v.batchQ = q
	v.sink = sink
	if q != nil && v.pendingSig == nil {
		v.pendingSig = make(map[uint32][]bufferedPacket)
	}
}

// SetSpans attaches a causal span ring: deferred parks, signature
// resolutions, authentications and rejections are recorded as spans keyed
// by (streamID, block), joining the sender-side spans of the serving tier
// into one end-to-end trace. nil detaches.
func (v *Chained) SetSpans(r *obs.SpanRing, streamID uint64) {
	v.spans = r
	v.spanStream = streamID
}

// span records one lifecycle span when the ring is attached and enabled.
func (v *Chained) span(kind obs.SpanKind, index uint32, at time.Time, dur time.Duration, reason string) {
	if !v.spans.Enabled() {
		return
	}
	v.spans.Record(obs.Span{
		Kind:   kind,
		Stream: v.spanStream,
		Block:  v.blockID,
		Index:  index,
		TimeNS: obs.TimeNS(at),
		DurNS:  dur.Nanoseconds(),
		Reason: reason,
	})
}

// digestOf computes p's content digest through the shared memo when one
// is attached.
func (v *Chained) digestOf(p *packet.Packet) crypto.Digest {
	if v.cache != nil {
		return v.cache.DigestOf(p)
	}
	return p.Digest()
}

// Ingest processes one arriving packet at the given receiver-local time.
// The timestamp orders buffering against authentication for the receiver-
// delay measurement; hash-chained schemes have no timing condition of
// their own.
func (v *Chained) Ingest(p *packet.Packet, at time.Time) ([]Event, error) {
	if p == nil {
		return nil, errors.New("verifier: nil packet")
	}
	if p.BlockID != v.blockID {
		return nil, fmt.Errorf("verifier: packet block %d, verifier block %d", p.BlockID, v.blockID)
	}
	if p.Index < 1 || p.Index > v.n {
		return nil, fmt.Errorf("verifier: index %d out of [1,%d]", p.Index, v.n)
	}
	v.stats.Received++
	s := &v.slots[p.Index]
	if s.authentic || s.buffered.p != nil {
		v.stats.Duplicates++
		v.m.countDuplicate()
		return nil, nil
	}

	// Shared-cache fast path: a packet whose exact content was already
	// proven authentic in this stream and block (by this or any other
	// subscriber) is accepted without re-running its signature or digest
	// check — see the forgery-safety argument in cache.go.
	if v.cache != nil {
		if d := v.cache.DigestOf(p); v.cache.IsAuthentic(v.streamID, p.BlockID, d) {
			v.stats.CacheHits++
			return v.accept(p, at), nil
		}
	}

	var events []Event
	switch {
	case len(p.Signature) > 0:
		if v.batchQ != nil {
			v.deferSignature(p, at)
			return nil, nil
		}
		if !v.pub.Verify(p.ContentBytes(), p.Signature) {
			v.reject(p, at, "bad_signature")
			return nil, nil
		}
		events = v.accept(p, at)
	default:
		if !s.trusted {
			if v.maxBuffered > 0 && v.nBuffered+v.stats.PendingSignature >= v.maxBuffered {
				v.stats.DroppedOverflow++
				v.m.countOverflow()
				v.emit(obs.Event{
					Type: obs.EventOverflowDropped, Index: p.Index,
					Block: p.BlockID, TimeNS: obs.TimeNS(at), Depth: v.nBuffered,
				})
				return nil, nil
			}
			s.buffered = bufferedPacket{p: p, arrived: at}
			v.nBuffered++
			if v.nBuffered > v.stats.MsgBufferHighWater {
				v.stats.MsgBufferHighWater = v.nBuffered
				if v.m != nil {
					v.m.msgHighWater.Observe(int64(v.nBuffered))
				}
			}
			v.emit(obs.Event{
				Type: obs.EventMsgBuffered, Index: p.Index,
				Block: p.BlockID, TimeNS: obs.TimeNS(at), Depth: v.nBuffered,
			})
			return nil, nil
		}
		if v.digestOf(p) != s.digest {
			v.reject(p, at, "digest_mismatch")
			return nil, nil
		}
		events = v.accept(p, at)
	}
	return events, nil
}

// deferSignature parks a signature packet pending its batch verdict and
// enqueues the underlying check. The packet counts against the buffer cap
// like any buffered packet (pending-signature floods are attacker
// reachable).
func (v *Chained) deferSignature(p *packet.Packet, at time.Time) {
	if v.maxBuffered > 0 && v.nBuffered+v.stats.PendingSignature >= v.maxBuffered {
		v.stats.DroppedOverflow++
		v.m.countOverflow()
		v.emit(obs.Event{
			Type: obs.EventOverflowDropped, Index: p.Index,
			Block: p.BlockID, TimeNS: obs.TimeNS(at), Depth: v.nBuffered,
		})
		return
	}
	v.pendingSig[p.Index] = append(v.pendingSig[p.Index], bufferedPacket{p: p, arrived: at})
	v.stats.PendingSignature++
	v.span(obs.SpanDeferredPark, p.Index, at, 0, "")
	v.emit(obs.Event{
		Type: obs.EventMsgBuffered, Index: p.Index,
		Block: p.BlockID, TimeNS: obs.TimeNS(at), Depth: v.nBuffered + v.stats.PendingSignature,
	})
	// The verdict callback may run synchronously (threshold reached) or
	// from a later Resolve on the ingest goroutine.
	v.batchQ.Enqueue(v.pub, p.ContentBytes(), p.Signature, func(ok bool) {
		v.resolveSignature(p, at, ok)
	})
}

// resolveSignature applies one deferred verdict. Authentication events
// cascade exactly as in the synchronous path but are delivered through
// the sink, since the originating Ingest has long returned. The packet's
// arrival time stands in for the verdict time, so TimeToAuth keeps using
// the caller's clock (batch-resolution latency is observable on the queue
// instead).
func (v *Chained) resolveSignature(p *packet.Packet, arrived time.Time, ok bool) {
	v.unparkPending(p)
	v.span(obs.SpanSigResolve, p.Index, arrived, 0, "")
	// A failed check is a rejection even if the index authenticated
	// while this copy was parked: it was no duplicate when it arrived,
	// and the synchronous path rejects it too.
	if !ok {
		v.reject(p, arrived, "bad_signature")
		return
	}
	if v.slots[p.Index].authentic {
		// Another copy of the signature packet (or a cascade) got there
		// first.
		v.stats.Duplicates++
		v.m.countDuplicate()
		return
	}
	events := v.accept(p, arrived)
	if v.sink != nil && len(events) > 0 {
		v.sink(events)
	}
}

// unparkPending removes one pending-signature entry for p.
func (v *Chained) unparkPending(p *packet.Packet) {
	list := v.pendingSig[p.Index]
	for i := range list {
		if list[i].p == p {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			v.stats.PendingSignature--
			break
		}
	}
	if len(list) == 0 {
		delete(v.pendingSig, p.Index)
	} else {
		v.pendingSig[p.Index] = list
	}
}

func (v *Chained) reject(p *packet.Packet, at time.Time, reason string) {
	v.stats.Rejected++
	v.m.countRejected()
	v.span(obs.SpanReject, p.Index, at, 0, reason)
	v.emit(obs.Event{
		Type: obs.EventRejected, Index: p.Index,
		Block: p.BlockID, TimeNS: obs.TimeNS(at), Reason: reason,
	})
}

// authenticate records one successful authentication at time `at` of a
// packet that arrived at `arrived`.
func (v *Chained) authenticate(p *packet.Packet, arrived, at time.Time) {
	s := &v.slots[p.Index]
	if s.trusted && !s.authentic {
		v.pendingHashes--
	}
	s.authentic = true
	v.stats.Authenticated++
	if v.cache != nil {
		v.cache.MarkAuthentic(v.streamID, p.BlockID, v.cache.DigestOf(p))
	}
	latency := at.Sub(arrived)
	if latency < 0 {
		latency = 0
	}
	v.stats.TimeToAuth.Observe(latency.Nanoseconds())
	if v.m != nil {
		v.m.authenticated.Inc()
		v.m.timeToAuth.Observe(latency.Nanoseconds())
	}
	v.span(obs.SpanAuthenticate, p.Index, at, latency, "")
	v.emit(obs.Event{
		Type: obs.EventAuthenticated, Index: p.Index, Block: p.BlockID,
		TimeNS: obs.TimeNS(at), LatencyNS: latency.Nanoseconds(),
	})
}

// accept marks p authentic, trusts its carried hashes, and cascades into
// the message buffer. It returns the authentication events in cascade
// order.
func (v *Chained) accept(p *packet.Packet, at time.Time) []Event {
	events := []Event{{Index: p.Index, Payload: p.Payload}}
	v.authenticate(p, at, at)
	v.unbuffer(p.Index)

	v.queue = append(v.queue[:0], p)
	for head := 0; head < len(v.queue); head++ {
		for _, h := range v.queue[head].Hashes {
			// A carried hash can only name a packet of this block; anything
			// else is ignored rather than trusted.
			if h.TargetIndex < 1 || h.TargetIndex > v.n {
				continue
			}
			s := &v.slots[h.TargetIndex]
			if s.trusted {
				continue
			}
			s.trusted, s.digest = true, h.Digest
			if !s.authentic {
				v.pendingHashes++
			}
			waiting := s.buffered
			if waiting.p == nil {
				if !s.authentic {
					v.emit(obs.Event{
						Type: obs.EventHashBuffered, Index: h.TargetIndex,
						Block: p.BlockID, TimeNS: obs.TimeNS(at),
					})
				}
				continue
			}
			if v.digestOf(waiting.p) != h.Digest {
				v.reject(waiting.p, at, "digest_mismatch")
				v.unbuffer(h.TargetIndex)
				continue
			}
			v.authenticate(waiting.p, waiting.arrived, at)
			v.unbuffer(h.TargetIndex)
			events = append(events, Event{Index: waiting.p.Index, Payload: waiting.p.Payload})
			v.queue = append(v.queue, waiting.p)
		}
	}
	clear(v.queue) // drop packet references held by the scratch
	if v.pendingHashes > v.stats.HashBufferHighWater {
		v.stats.HashBufferHighWater = v.pendingHashes
		if v.m != nil {
			v.m.hashHighWater.Observe(int64(v.pendingHashes))
		}
	}
	return events
}

// unbuffer empties index's message-buffer entry, if any.
func (v *Chained) unbuffer(index uint32) {
	if s := &v.slots[index]; s.buffered.p != nil {
		s.buffered = bufferedPacket{}
		v.nBuffered--
	}
}

func (v *Chained) emit(e obs.Event) {
	if v.tracer == nil {
		return
	}
	v.tracer.Emit(e)
}

func (m *metrics) countDuplicate() {
	if m != nil {
		m.duplicates.Inc()
	}
}

func (m *metrics) countRejected() {
	if m != nil {
		m.rejected.Inc()
	}
}

func (m *metrics) countOverflow() {
	if m == nil {
		return
	}
	if m.overflow == nil {
		m.overflow = m.reg.Counter("verifier.overflow_dropped")
	}
	m.overflow.Inc()
}

// IsAuthentic reports whether the packet at index has been authenticated.
func (v *Chained) IsAuthentic(index uint32) bool {
	return index >= 1 && index <= v.n && v.slots[index].authentic
}

// PendingCount returns the number of packets still buffered unverified.
func (v *Chained) PendingCount() int { return v.nBuffered }

// Stats returns a snapshot of the verifier's counters.
func (v *Chained) Stats() Stats { return v.stats }
