package verifier_test

import (
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/packet"
	"mcauth/internal/scheme"
	"mcauth/internal/scheme/augchain"
	"mcauth/internal/scheme/emss"
	"mcauth/internal/stats"
	"mcauth/internal/verifier"
)

// TestChainedMatchesVerifiableSet drives the engine with random subsets
// of an EMSS and an augmented-chain block, in random order with random
// duplicates, and checks after every Ingest that
//   - the authenticated set is exactly Graph.VerifiableSet of what has
//     arrived (empty until the signature packet arrives), and
//   - the running buffer counts and their high-water marks equal a
//     brute-force recount from the packets themselves.
func TestChainedMatchesVerifiableSet(t *testing.T) {
	signer := crypto.NewSignerFromString("verifier-oracle")
	em, err := emss.New(emss.Config{N: 48, M: 2, D: 1}, signer)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := augchain.New(augchain.Config{N: 48, A: 3, B: 3}, signer)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*scheme.Chained{em, ac} {
		t.Run(s.Name(), func(t *testing.T) {
			g, err := s.Graph()
			if err != nil {
				t.Fatal(err)
			}
			n := s.BlockSize()
			payloads := make([][]byte, n)
			for i := range payloads {
				payloads[i] = []byte{byte(i), byte(i >> 8)}
			}
			pkts, err := s.Authenticate(9, payloads)
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(2024)
			for trial := 0; trial < 300; trial++ {
				checkTrial(t, g.VerifiableSet, pkts, n, g.Root(), rng, signer)
				if t.Failed() {
					t.Fatalf("trial %d failed", trial)
				}
			}
		})
	}
}

func checkTrial(t *testing.T, verifiableSet func([]bool) ([]bool, error), pkts []*packet.Packet, n, root int, rng *stats.RNG, signer crypto.Signer) {
	t.Helper()
	keep := rng.Float64() // per-trial arrival probability
	var order []*packet.Packet
	for _, p := range pkts {
		if rng.Float64() < keep {
			order = append(order, p)
			if rng.Float64() < 0.1 {
				order = append(order, p) // a duplicate delivery
			}
		}
	}
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	v, err := verifier.NewChained(9, n, signer.Public())
	if err != nil {
		t.Fatal(err)
	}
	received := make([]bool, n+1)
	var maxBuffered, maxPending int
	for step, p := range order {
		if _, err := v.Ingest(p, time.Unix(0, int64(step))); err != nil {
			t.Fatal(err)
		}
		received[p.Index] = true
		want := make([]bool, n+1)
		if received[root] {
			if want, err = verifiableSet(received); err != nil {
				t.Fatal(err)
			}
		}
		buffered, targets := 0, make(map[uint32]bool)
		for i := 1; i <= n; i++ {
			if got := v.IsAuthentic(uint32(i)); got != want[i] {
				t.Errorf("step %d: packet %d authentic=%v, VerifiableSet says %v", step, i, got, want[i])
				return
			}
			if received[i] && !want[i] {
				buffered++
			}
		}
		for _, q := range pkts {
			if !want[q.Index] {
				continue
			}
			for _, h := range q.Hashes {
				if !want[h.TargetIndex] {
					targets[h.TargetIndex] = true
				}
			}
		}
		maxBuffered = max(maxBuffered, buffered)
		maxPending = max(maxPending, len(targets))
		if got := v.PendingCount(); got != buffered {
			t.Errorf("step %d: PendingCount %d, recount %d", step, got, buffered)
			return
		}
		if got := v.PendingHashes(); got != len(targets) {
			t.Errorf("step %d: pending hashes %d, recount %d", step, got, len(targets))
			return
		}
	}
	st := v.Stats()
	if st.MsgBufferHighWater != maxBuffered || st.HashBufferHighWater != maxPending {
		t.Errorf("high water msg=%d hash=%d, recount msg=%d hash=%d",
			st.MsgBufferHighWater, st.HashBufferHighWater, maxBuffered, maxPending)
	}
}
