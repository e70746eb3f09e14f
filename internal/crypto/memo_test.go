package crypto

import (
	"fmt"
	"sync"
	"testing"

	"mcauth/internal/obs"
)

// countVerifies runs f with instrumentation on and returns how many real
// Ed25519 checks it performed.
func countVerifies(t *testing.T, f func()) int64 {
	t.Helper()
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Uninstrument()
	f()
	return reg.Snapshot().Counters["crypto.verify_ops"]
}

func memoOf(t *testing.T, v Verifier) *SigCache {
	t.Helper()
	ev, ok := v.(*ed25519Verifier)
	if !ok {
		t.Fatalf("verifier %T is not an ed25519 key", v)
	}
	return ev.memo.Load()
}

func TestKeyMemoSharedAcrossPublic(t *testing.T) {
	signer := NewSignerFromString("memo-shared")
	msg := []byte("block root")
	sig := signer.Sign(msg)
	if n := countVerifies(t, func() {
		for i := 0; i < 5; i++ {
			if !signer.Public().Verify(msg, sig) {
				t.Fatal("genuine signature rejected")
			}
		}
	}); n != 1 {
		t.Errorf("5 verifies through fresh Public() values ran %d Ed25519 checks, want 1", n)
	}
	if signer.Public() != signer.Public() {
		t.Error("Public() must return the signer's one shared key")
	}
}

func TestKeyMemoLazy(t *testing.T) {
	signer := NewSignerFromString("memo-lazy")
	pub := signer.Public()
	if memoOf(t, pub) != nil {
		t.Fatal("memo allocated before any check")
	}
	sig := signer.Sign([]byte("m"))
	sig[0] ^= 1
	pub.Verify([]byte("m"), sig)
	if memoOf(t, pub) != nil {
		t.Fatal("memo allocated by a failed check")
	}
}

func TestKeyMemoForgedNeverHits(t *testing.T) {
	signer := NewSignerFromString("memo-forged")
	pub := signer.Public()
	msg := []byte("root message")
	sig := signer.Sign(msg)
	if !pub.Verify(msg, sig) {
		t.Fatal("genuine signature rejected")
	}
	forged := append([]byte(nil), sig...)
	forged[SignatureSize-1] ^= 0x40
	if n := countVerifies(t, func() {
		for i := 0; i < 3; i++ {
			if pub.Verify(msg, forged) {
				t.Fatal("forged signature accepted")
			}
		}
	}); n != 3 {
		t.Errorf("3 forged checks ran %d Ed25519 verifies, want 3", n)
	}
}

func TestKeyMemoOtherMessageNeverHits(t *testing.T) {
	signer := NewSignerFromString("memo-msg")
	pub := signer.Public()
	sig := signer.Sign([]byte("signed"))
	if !pub.Verify([]byte("signed"), sig) {
		t.Fatal("genuine signature rejected")
	}
	if n := countVerifies(t, func() {
		if pub.Verify([]byte("other"), sig) {
			t.Fatal("signature accepted for a message it does not sign")
		}
	}); n != 1 {
		t.Errorf("wrong-message check ran %d Ed25519 verifies, want 1", n)
	}
}

func TestKeyMemoOtherKeyNeverHits(t *testing.T) {
	a := NewSignerFromString("memo-key-a")
	b := NewSignerFromString("memo-key-b")
	msg := []byte("shared message")
	sig := a.Sign(msg)
	if !a.Public().Verify(msg, sig) {
		t.Fatal("genuine signature rejected")
	}
	// The same (msg, sig) under another key: b's own memo must miss, and
	// a verifier parsed from a's bytes starts cold but still verifies.
	if n := countVerifies(t, func() {
		if b.Public().Verify(msg, sig) {
			t.Fatal("signature accepted under the wrong key")
		}
	}); n != 1 {
		t.Errorf("wrong-key check ran %d Ed25519 verifies, want 1", n)
	}
	parsed, err := ParseVerifier(a.Public().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n := countVerifies(t, func() {
		if !parsed.Verify(msg, sig) {
			t.Fatal("parsed key rejected a genuine signature")
		}
	}); n != 1 {
		t.Errorf("parsed key ran %d Ed25519 verifies, want 1 (its own cold memo)", n)
	}
}

func TestKeyMemoFailuresNotCached(t *testing.T) {
	signer := NewSignerFromString("memo-fail")
	pub := signer.Public()
	msg := []byte("m")
	sig := signer.Sign([]byte("something else"))
	if n := countVerifies(t, func() {
		pub.Verify(msg, sig)
		pub.Verify(msg, sig)
	}); n != 2 {
		t.Errorf("two failing calls ran %d Ed25519 verifies, want 2", n)
	}
}

func TestKeyMemoBounded(t *testing.T) {
	signer := NewSignerFromString("memo-bound")
	pub := signer.Public()
	for i := 0; i < 2*keyMemoSize+keyMemoSize/2; i++ {
		msg := []byte(fmt.Sprintf("msg-%d", i))
		if !pub.Verify(msg, signer.Sign(msg)) {
			t.Fatal("genuine signature rejected")
		}
		if n := memoOf(t, pub).Len(); n > 2*keyMemoSize {
			t.Fatalf("memo holds %d entries after %d checks, bound %d", n, i+1, 2*keyMemoSize)
		}
	}
	if memoOf(t, pub).Stats().Evicted == 0 {
		t.Error("memo never rotated past its bound")
	}
}

// TestKeyMemoConcurrent exercises the memo from many goroutines with
// genuine and forged signatures interleaved; run under -race.
func TestKeyMemoConcurrent(t *testing.T) {
	signer := NewSignerFromString("memo-concurrent")
	pub := signer.Public()
	const msgs = 8
	sigs := make([][]byte, msgs)
	for i := range sigs {
		sigs[i] = signer.Sign([]byte{byte(i)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4*msgs; i++ {
				m := (g + i) % msgs
				if !pub.Verify([]byte{byte(m)}, sigs[m]) {
					t.Error("genuine signature rejected")
					return
				}
				if pub.Verify([]byte{byte(m + 1)}, sigs[m]) {
					t.Error("signature accepted for the wrong message")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := memoOf(t, pub).Len(); n != msgs {
		t.Errorf("memo holds %d entries, want %d (one per distinct genuine check)", n, msgs)
	}
}
