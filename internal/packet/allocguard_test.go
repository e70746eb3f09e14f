package packet

import (
	"bytes"
	"testing"

	"mcauth/internal/crypto"
)

// Every chained verifier digests each packet once per receiver, so Digest
// must stay allocation-free for packets that fit its stack buffer. The
// race detector instruments allocations, so the guard skips under -race.
func TestDigestAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	p := samplePacket()
	p.Payload = make([]byte, 64)
	want := crypto.HashBytes(p.ContentBytes())
	if n := testing.AllocsPerRun(100, func() {
		if p.Digest() != want {
			t.Fatal("digest mismatch")
		}
	}); n > 0 {
		t.Errorf("Packet.Digest: %.1f allocs/op, want 0", n)
	}
}

// TestDigestMatchesContentBytes pins Digest to the hash of ContentBytes on
// both sides of the stack buffer's size.
func TestDigestMatchesContentBytes(t *testing.T) {
	for _, size := range []int{0, 1, digestBufSize - 100, digestBufSize, 4 * digestBufSize} {
		p := samplePacket()
		p.Payload = bytes.Repeat([]byte{0xa5}, size)
		if got, want := p.Digest(), crypto.HashBytes(p.ContentBytes()); got != want {
			t.Errorf("payload %d bytes: Digest differs from the hash of ContentBytes", size)
		}
	}
}
