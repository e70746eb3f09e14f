package main

import "encoding/binary"

// Payloads are a pure function of (seed, global message index): the first
// eight bytes carry the index, the rest is a splitmix64 stream keyed by
// both. A receiver recovers the index from the header and re-derives every
// byte, so a corrupted, forged or misrouted message cannot pass the check.

const payloadHeader = 8

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// appendPayload appends the size-byte payload of message g to dst.
func appendPayload(dst []byte, seed, g uint64, size int) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, size)...)
	p := dst[start:]
	binary.BigEndian.PutUint64(p, g)
	state := splitmix(seed ^ splitmix(g))
	for off := payloadHeader; off < size; off += 8 {
		state = splitmix(state)
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], state)
		copy(p[off:], w[:])
	}
	return dst
}

// payloadIndex returns the message index a payload claims, and false when
// the payload is too short to carry one.
func payloadIndex(p []byte, size int) (uint64, bool) {
	if len(p) != size || size < payloadHeader {
		return 0, false
	}
	return binary.BigEndian.Uint64(p), true
}

// payloadChecker re-derives payloads into one reused buffer.
type payloadChecker struct {
	seed uint64
	size int
	buf  []byte
}

// check reports the payload's message index and whether every byte equals
// the re-derived payload of that index.
func (c *payloadChecker) check(p []byte) (uint64, bool) {
	g, ok := payloadIndex(p, c.size)
	if !ok {
		return 0, false
	}
	c.buf = appendPayload(c.buf[:0], c.seed, g, c.size)
	return g, string(c.buf) == string(p)
}
