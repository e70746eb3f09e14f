package schemetest

import (
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/scheme"
	"mcauth/internal/verifier"
)

// DeferredForgedCopy checks the batch-verify verdict order: a signature
// packet parked behind a genuine copy of its index, whose own signature
// fails, counts as rejected once the genuine copy has authenticated — at
// its arrival it was no duplicate, and the synchronous path rejects it.
// s's verifiers must implement scheme.DeferredVerifier.
func DeferredForgedCopy(t *testing.T, s scheme.Scheme) {
	t.Helper()
	pkts, err := s.Authenticate(1, Payloads(s.BlockSize()))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.NewVerifier()
	if err != nil {
		t.Fatal(err)
	}
	dv, ok := v.(scheme.DeferredVerifier)
	if !ok {
		t.Fatalf("%s verifier does not defer signature checks", s.Name())
	}
	q, err := crypto.NewBatchVerifyQueue(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sunk []verifier.Event
	dv.SetBatchVerify(q, func(evs []verifier.Event) { sunk = append(sunk, evs...) })
	for _, p := range pkts {
		if len(p.Signature) == 0 {
			continue
		}
		forged := *p
		forged.Signature = append([]byte(nil), p.Signature...)
		forged.Signature[0] ^= 0x80
		at := time.Unix(0, 0)
		if _, err := v.Ingest(p, at); err != nil {
			t.Fatal(err)
		}
		if _, err := v.Ingest(&forged, at); err != nil {
			t.Fatal(err)
		}
		q.Resolve()
		st := v.Stats()
		if st.Authenticated < 1 || st.Rejected != 1 || st.Duplicates != 0 || st.PendingSignature != 0 {
			t.Errorf("genuine then forged copy of signature packet %d: %+v, want the forgery rejected, not a duplicate", p.Index, st)
		}
		if len(sunk) == 0 {
			t.Errorf("genuine signature packet %d delivered no events", p.Index)
		}
		return
	}
	t.Fatalf("%s sent no signature packet", s.Name())
}
