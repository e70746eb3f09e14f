package tesla

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/obs"
	"mcauth/internal/packet"
	"mcauth/internal/schemetest"
	"mcauth/internal/stats"
	"mcauth/internal/verifier"
)

// rejectReasons records the reason of every rejection a verifier traces.
type rejectReasons struct {
	mu      sync.Mutex
	reasons []string
}

func (r *rejectReasons) Emit(e obs.Event) {
	if e.Type != obs.EventRejected {
		return
	}
	r.mu.Lock()
	r.reasons = append(r.reasons, e.Reason)
	r.mu.Unlock()
}

// ingestAll delivers pkts in order at prompt send times into a fresh
// verifier and returns it with every event.
func ingestAll(t *testing.T, s *Scheme, pkts []*packet.Packet) (*teslaVerifier, []verifier.Event) {
	t.Helper()
	v, err := s.NewVerifier()
	if err != nil {
		t.Fatal(err)
	}
	clock := promptClock(s.cfg)
	var evs []verifier.Event
	for w, p := range pkts {
		out, err := v.Ingest(p, clock(w+1))
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, out...)
	}
	return v.(*teslaVerifier), evs
}

// chainWalkOps counts the HMAC operations (PRF steps, MAC-key derivations
// and MAC checks) run while fn executes.
func chainWalkOps(fn func()) int64 {
	reg := obs.NewRegistry()
	crypto.Instrument(reg)
	defer crypto.Uninstrument()
	fn()
	return reg.Snapshot().Counters["crypto.mac_ops"]
}

func TestMemoWrongKeyNeverHits(t *testing.T) {
	cfg := testConfig(8, 1)
	s := newScheme(t, cfg)
	pkts, err := s.Authenticate(1, schemetest.Payloads(8))
	if err != nil {
		t.Fatal(err)
	}
	// Warm: the first receiver notes the commitment, the second proves
	// the whole chain into the memo.
	ingestAll(t, s, pkts)
	ingestAll(t, s, pkts)

	v, err := s.NewVerifier()
	if err != nil {
		t.Fatal(err)
	}
	tr := &rejectReasons{}
	v.(*teslaVerifier).SetTracer(tr)
	clock := promptClock(cfg)
	if _, err := v.Ingest(pkts[0], clock(1)); err != nil {
		t.Fatal(err)
	}
	tv := v.(*teslaVerifier)
	if tv.chain == nil || tv.chain.top.Load() != 8 {
		t.Fatal("the warmed memo does not hold the whole chain: the test would be vacuous")
	}
	evil := *pkts[4] // discloses K_3
	evil.DisclosedKey = append([]byte(nil), evil.DisclosedKey...)
	evil.DisclosedKey[0] ^= 0x80
	if tv.chain.covers(int(evil.DisclosedKeyIndex), evil.DisclosedKey, 0, tv.bestKey) {
		t.Fatal("memo covers a wrong disclosed key")
	}
	if _, err := v.Ingest(&evil, clock(5)); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bad_key_chain"}; !reflect.DeepEqual(tr.reasons, want) {
		t.Errorf("rejections %v, want %v", tr.reasons, want)
	}
	if tv.bestIdx != 0 {
		t.Errorf("wrong key advanced the verified chain to %d", tv.bestIdx)
	}
}

func TestMemoChainNeverServesAnotherBlock(t *testing.T) {
	cfg := testConfig(8, 1)
	s := newScheme(t, cfg)
	a, err := s.Authenticate(1, schemetest.Payloads(8))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Authenticate(2, schemetest.Payloads(8))
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s, a)
	ingestAll(t, s, a) // the second receiver proves A's chain

	// Block B with block A's disclosed keys spliced in: every disclosure
	// is a genuine chain key, of the wrong chain.
	spliced := make([]*packet.Packet, len(b))
	for i, p := range b {
		q := *p
		if len(p.DisclosedKey) > 0 {
			q.DisclosedKey = a[i].DisclosedKey
		}
		spliced[i] = &q
	}
	tv, evs := ingestAll(t, s, spliced)
	if len(evs) != 0 {
		t.Errorf("block B authenticated %d packets under block A's keys", len(evs))
	}
	if tv.bestIdx != 0 {
		t.Errorf("block A's keys advanced block B's chain to %d", tv.bestIdx)
	}
	// Block B's genuine keys are proven by B's own walk, not A's entry
	// (the spliced receiver above noted B's commitment).
	var cold, hot []verifier.Event
	coldOps := chainWalkOps(func() { _, cold = ingestAll(t, s, b) })
	hotOps := chainWalkOps(func() { _, hot = ingestAll(t, s, b) })
	if len(cold) != 8 || !reflect.DeepEqual(cold, hot) {
		t.Fatalf("block B: cold %d events, hot %d", len(cold), len(hot))
	}
	if want := int64(8); coldOps <= want || hotOps != want {
		t.Errorf("block B HMAC ops: cold %d, hot %d; want cold > %d (walks and derivations) and hot = %d (MAC checks only)",
			coldOps, hotOps, want, want)
	}
}

// TestMemoLoneVerifierAllocatesNoChain pins the unshared path: a block
// only one verifier sees gets a noted commitment and no chain, so it
// walks and derives exactly as an unmemoized verifier; the second
// verifier of the block gets the chain and proves it.
func TestMemoLoneVerifierAllocatesNoChain(t *testing.T) {
	cfg := testConfig(8, 1)
	s := newScheme(t, cfg)
	pkts, err := s.Authenticate(1, schemetest.Payloads(8))
	if err != nil {
		t.Fatal(err)
	}
	first, evs := ingestAll(t, s, pkts)
	if first.chain != nil || len(evs) != 8 {
		t.Fatalf("first verifier: chain %v, %d events", first.chain, len(evs))
	}
	var boot bootstrapParams
	for _, p := range pkts {
		if len(p.Signature) > 0 {
			if boot, err = parseBootstrap(p.Payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c, ok := s.memo.cur[[crypto.KeySize]byte(boot.commitment)]; !ok || c != nil {
		t.Fatalf("first sight should note the commitment without a chain (noted %v, chain %v)", ok, c)
	}
	second, _ := ingestAll(t, s, pkts)
	if second.chain == nil || second.chain.top.Load() != 8 {
		t.Fatal("second verifier did not prove the chain into the memo")
	}
}

func TestMemoMACKeyOnlyForItsChainKey(t *testing.T) {
	kc, err := crypto.NewKeyChain([]byte("memo-mac"), 4)
	if err != nil {
		t.Fatal(err)
	}
	c := newProvenChain([crypto.KeySize]byte(kc.Commitment()), 4)
	keys := make([][crypto.KeySize]byte, 5)
	for i := 1; i <= 4; i++ {
		k, err := kc.Key(i)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = [crypto.KeySize]byte(k)
	}
	c.extend(keys, 4)
	other := keys[2]
	other[0] ^= 1
	mk := crypto.DeriveMACKey(keys[2][:])
	c.storeMAC(2, other[:], mk) // not the proven K_2: must not store
	var out [crypto.KeySize]byte
	if c.macKeyInto(out[:], 2, keys[2][:]) {
		t.Fatal("MAC key stored under a chain key that is not K_2")
	}
	c.storeMAC(2, keys[2][:], mk)
	if !c.macKeyInto(out[:], 2, keys[2][:]) || string(out[:]) != string(mk) {
		t.Fatal("MAC key for the proven K_2 not served")
	}
	if c.macKeyInto(out[:], 2, other[:]) || c.macKeyInto(out[:], 3, keys[2][:]) {
		t.Error("MAC key served for another chain key or interval")
	}
	// A receiver whose key at the memo's top disagrees cannot extend it.
	d := newProvenChain([crypto.KeySize]byte(kc.Commitment()), 4)
	d.extend(keys, 2)
	forged := append([][crypto.KeySize]byte(nil), keys...)
	forged[2][0] ^= 1
	d.extend(forged, 4)
	if got := d.top.Load(); got != 2 {
		t.Errorf("inconsistent extension moved the proven top to %d", got)
	}
}

func TestMemoBounded(t *testing.T) {
	cfg := testConfig(4, 1)
	s := newScheme(t, cfg)
	for block := uint64(1); block <= 3*chainMemoSize; block++ {
		pkts, err := s.Authenticate(block, schemetest.Payloads(4))
		if err != nil {
			t.Fatal(err)
		}
		if _, evs := ingestAll(t, s, pkts); len(evs) != 4 {
			t.Fatalf("block %d: authenticated %d of 4", block, len(evs))
		}
		if n := len(s.memo.cur) + len(s.memo.prev); n > 2*chainMemoSize {
			t.Fatalf("after block %d the memo holds %d chains, bound %d", block, n, 2*chainMemoSize)
		}
	}
}

// TestMemoConcurrentVerifiersMatchCold runs lossy, reordered receivers of
// several blocks concurrently against one scheme's memo and checks each
// against the same receiver on a scheme whose memo is always cold.
func TestMemoConcurrentVerifiersMatchCold(t *testing.T) {
	cfg := testConfig(24, 2)
	cfg.Interval = 10 * time.Millisecond
	shared := newScheme(t, cfg)
	const blocks, receivers = 3, 24
	type outcome struct {
		events []verifier.Event
		stats  verifier.Stats
	}
	run := func(s *Scheme, pkts []*packet.Packet, seed uint64) outcome {
		rng := stats.NewRNG(seed)
		v, err := s.NewVerifier()
		if err != nil {
			t.Error(err)
			return outcome{}
		}
		type arrival struct {
			p  *packet.Packet
			at time.Time
		}
		var arrivals []arrival
		for w, p := range pkts {
			if rng.Float64() < 0.25 {
				continue
			}
			// Jitter up to three intervals: reorders, and pushes some
			// arrivals past their disclosure deadline.
			at := cfg.SendTime(w + 1).Add(time.Duration(rng.Float64() * float64(3*cfg.Interval)))
			arrivals = append(arrivals, arrival{p, at})
		}
		sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].at.Before(arrivals[j].at) })
		var out outcome
		for _, a := range arrivals {
			evs, err := v.Ingest(a.p, a.at)
			if err != nil {
				t.Error(err)
				return outcome{}
			}
			out.events = append(out.events, evs...)
		}
		out.stats = v.Stats()
		return out
	}
	blockPkts := make([][]*packet.Packet, blocks)
	for b := range blockPkts {
		pkts, err := shared.Authenticate(uint64(b+1), schemetest.Payloads(cfg.N))
		if err != nil {
			t.Fatal(err)
		}
		blockPkts[b] = pkts
	}
	got := make([]outcome, blocks*receivers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run(shared, blockPkts[i%blocks], uint64(i))
		}(i)
	}
	wg.Wait()
	for i := range got {
		cold := newScheme(t, cfg)
		want := run(cold, blockPkts[i%blocks], uint64(i))
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("receiver %d: memo-shared outcome differs from a cold scheme's", i)
		}
	}
}
