package authtree

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/packet"
	"mcauth/internal/scheme"
	"mcauth/internal/schemetest"
	"mcauth/internal/verifier"
)

// refVerifier is the oracle's full-walk reference: every packet is hashed
// from its leaf to the root with leafDigest/nodeDigest, and a root counts
// as verified only after a signature check over it has succeeded. shared,
// when non-nil, models a SharedCache: the content digests of packets any
// subscriber of the stream has authenticated.
type refVerifier struct {
	t         *Tree
	pub       crypto.Verifier
	authentic map[uint32]bool
	roots     map[crypto.Digest]bool
	shared    map[crypto.Digest]bool
	stats     verifier.Stats
}

func newRefVerifier(t *Tree, shared map[crypto.Digest]bool) *refVerifier {
	return &refVerifier{
		t: t, pub: t.signer.Public(), shared: shared,
		authentic: make(map[uint32]bool), roots: make(map[crypto.Digest]bool),
	}
}

func (r *refVerifier) root(p *packet.Packet) (crypto.Digest, bool) {
	if len(p.Hashes) != r.t.HashesPerPacket() {
		return crypto.Digest{}, false
	}
	d := leafDigest(p.BlockID, p.Index, p.Payload)
	pos, next := int(p.Index)-1, 0
	children := make([]crypto.Digest, r.t.arity)
	for lvl := 0; lvl < r.t.depth; lvl++ {
		for slot := range children {
			if slot == pos%r.t.arity {
				children[slot] = d
				continue
			}
			ref := p.Hashes[next]
			next++
			if ref.TargetIndex != r.t.pathRef(lvl, slot) {
				return crypto.Digest{}, false
			}
			children[slot] = ref.Digest
		}
		d = nodeDigest(children)
		pos /= r.t.arity
	}
	return d, true
}

// ingest applies one packet and reports whether it was accepted.
func (r *refVerifier) ingest(p *packet.Packet) bool {
	r.stats.Received++
	if r.authentic[p.Index] {
		r.stats.Duplicates++
		return false
	}
	accept := func() bool {
		r.authentic[p.Index] = true
		r.stats.Authenticated++
		if r.shared != nil {
			r.shared[p.Digest()] = true
		}
		return true
	}
	if r.shared != nil && r.shared[p.Digest()] {
		r.stats.CacheHits++
		return accept()
	}
	root, ok := r.root(p)
	if !ok {
		r.stats.Rejected++
		return false
	}
	if !r.roots[root] {
		if !r.pub.Verify(rootMessage(p.BlockID, r.t.n, root), p.Signature) {
			r.stats.Rejected++
			return false
		}
		r.roots[root] = true
	}
	return accept()
}

// oracleDeliveries draws one receiver's delivery sequence: a random subset
// of the block in random order, a few duplicates, and tampered copies —
// one early, before most nodes are proven, one late, after — each
// flipping the payload, one carried sibling at a random level, or a
// sibling's slot index.
func oracleDeliveries(rng *rand.Rand, tree *Tree, pkts []*packet.Packet) []*packet.Packet {
	keep := 0.3 + 0.7*rng.Float64()
	var seq []*packet.Packet
	for _, p := range pkts {
		if rng.Float64() < keep {
			seq = append(seq, p)
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	for d := rng.Intn(8); d > 0 && len(seq) > 0; d-- {
		dup := seq[rng.Intn(len(seq))]
		at := rng.Intn(len(seq) + 1)
		seq = append(seq[:at], append([]*packet.Packet{dup}, seq[at:]...)...)
	}
	insert := func(lo, hi int) {
		orig := pkts[rng.Intn(len(pkts))]
		bad := *orig
		bad.Payload = append([]byte(nil), orig.Payload...)
		bad.Hashes = append([]packet.HashRef(nil), orig.Hashes...)
		switch rng.Intn(3) {
		case 0:
			bad.Payload[rng.Intn(len(bad.Payload))] ^= 1 << rng.Intn(8)
		case 1:
			lvl := rng.Intn(tree.depth)
			bad.Hashes[lvl*(tree.arity-1)+rng.Intn(tree.arity-1)].Digest[rng.Intn(crypto.HashSize)] ^= 1
		default:
			bad.Hashes[rng.Intn(len(bad.Hashes))].TargetIndex ^= 1
		}
		at := lo + rng.Intn(hi-lo+1)
		seq = append(seq[:at], append([]*packet.Packet{&bad}, seq[at:]...)...)
	}
	insert(0, len(seq)/4)
	insert(3*len(seq)/4, len(seq))
	return seq
}

// oracleSubscriber pairs a verifier under test with its reference and the
// graph-level view of what genuinely arrived.
type oracleSubscriber struct {
	v       scheme.Verifier
	ref     *refVerifier
	authed  map[uint32]bool
	arrived []bool
}

// check asserts the verifier matches its reference and the dependence
// graph: equal Stats, and authenticated set = VerifiableSet(arrived) on
// the packets that arrived.
func (s *oracleSubscriber) check(t *testing.T, g *depgraph.Graph, step int) {
	t.Helper()
	if got, want := s.v.Stats(), s.ref.stats; !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: stats %+v, full-walk reference %+v", step, got, want)
	}
	verifiable, err := g.VerifiableSet(s.arrived)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(s.arrived); i++ {
		if want := s.arrived[i] && verifiable[i]; s.authed[uint32(i)] != want {
			t.Fatalf("step %d: packet %d authenticated=%v, dependence graph says %v", step, i, s.authed[uint32(i)], want)
		}
	}
}

// TestOracleEarlyExitMatchesFullWalk drives random subsets, orders,
// duplicates and tampering through the proven-node early exit and checks
// every decision against a full-walk reference and the dependence graph,
// under synchronous verification, a batch-verify queue, and two
// subscribers sharing a SharedCache.
func TestOracleEarlyExitMatchesFullWalk(t *testing.T) {
	const n = 128
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for _, arity := range []int{2, 4} {
		tree, err := NewArity(n, arity, crypto.NewSignerFromString(fmt.Sprintf("oracle-%d", arity)))
		if err != nil {
			t.Fatal(err)
		}
		g, err := tree.Graph()
		if err != nil {
			t.Fatal(err)
		}
		pkts, err := tree.Authenticate(1, schemetest.Payloads(n))
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"sync", "batch", "shared"} {
			t.Run(fmt.Sprintf("arity%d/%s", arity, mode), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(arity*1000 + len(mode))))
				for trial := 0; trial < trials; trial++ {
					runOracleTrial(t, rng, tree, g, pkts, mode)
				}
			})
		}
	}
}

func runOracleTrial(t *testing.T, rng *rand.Rand, tree *Tree, g *depgraph.Graph, pkts []*packet.Packet, mode string) {
	t.Helper()
	subscribers := 1
	var (
		cache  *verifier.SharedCache
		shared map[crypto.Digest]bool
		q      *crypto.BatchVerifyQueue
	)
	switch mode {
	case "shared":
		subscribers = 2
		var err error
		if cache, err = verifier.NewSharedCache(1 << 12); err != nil {
			t.Fatal(err)
		}
		shared = make(map[crypto.Digest]bool)
	case "batch":
		var err error
		if q, err = crypto.NewBatchVerifyQueue(1<<10, nil); err != nil {
			t.Fatal(err)
		}
	}
	subs := make([]*oracleSubscriber, subscribers)
	type delivery struct {
		sub int
		p   *packet.Packet
	}
	var order []delivery
	for i := range subs {
		v, err := tree.NewVerifier()
		if err != nil {
			t.Fatal(err)
		}
		s := &oracleSubscriber{
			v: v, ref: newRefVerifier(tree, shared),
			authed: make(map[uint32]bool), arrived: make([]bool, tree.n+1),
		}
		if cache != nil {
			v.(scheme.CacheAware).SetSharedCache(cache, 7)
		}
		if q != nil {
			v.(scheme.DeferredVerifier).SetBatchVerify(q, func(evs []verifier.Event) {
				for _, e := range evs {
					s.authed[e.Index] = true
				}
			})
		}
		subs[i] = s
		for _, p := range oracleDeliveries(rng, tree, pkts) {
			order = append(order, delivery{sub: i, p: p})
		}
	}
	// Interleave the subscribers' sequences, each kept in its own order.
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	next := make([][]*packet.Packet, subscribers)
	for _, d := range order {
		next[d.sub] = append(next[d.sub], d.p)
	}
	for step, d := range order {
		s := subs[d.sub]
		p := next[d.sub][0]
		next[d.sub] = next[d.sub][1:]
		if p == pkts[p.Index-1] {
			s.arrived[p.Index] = true
		}
		evs, err := s.v.Ingest(p, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			s.authed[e.Index] = true
		}
		accepted := s.ref.ingest(p)
		if q != nil {
			// Deferred verdicts land at Resolve; settle here on a third of
			// the steps and let the rest park, so later packets of a
			// pending root wait on its verdict.
			if rng.Intn(3) != 0 {
				continue
			}
			q.Resolve()
		} else if got := len(evs) == 1 && evs[0].Index == p.Index; got != accepted {
			t.Fatalf("step %d: packet %d accepted=%v, full-walk reference %v", step, p.Index, got, accepted)
		}
		s.check(t, g, step)
	}
	if q != nil {
		q.Resolve()
	}
	for _, s := range subs {
		s.check(t, g, len(order))
	}
}
