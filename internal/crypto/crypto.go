// Package crypto wraps the cryptographic primitives used by the multicast
// authentication schemes: a collision-resistant hash (SHA-256), a MAC
// (HMAC-SHA256), a digital signature (Ed25519), and the one-way key chain
// that TESLA commits to in its bootstrap packet.
//
// The paper's analysis depends on the primitives only through their output
// sizes (l_hash and l_sign in Equation (3)); the sizes here are those of the
// concrete algorithms, while the analytic overhead formulas accept arbitrary
// sizes so that the paper-era values (16-byte MD5 hashes, 128-byte RSA
// signatures) can also be reproduced.
package crypto

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Sizes of the concrete primitives, in bytes.
const (
	HashSize      = sha256.Size
	MACSize       = sha256.Size
	SignatureSize = ed25519.SignatureSize
	KeySize       = 16 // symmetric MAC key size used by TESLA key chains
)

// Digest is a SHA-256 hash value.
type Digest [HashSize]byte

// HashBytes hashes data with SHA-256.
func HashBytes(data []byte) Digest {
	if in := instr.Load(); in != nil {
		start := time.Now()
		d := sha256.Sum256(data)
		in.record(in.hashOps, in.hashNS, start)
		return d
	}
	return sha256.Sum256(data)
}

// HashConcat hashes the concatenation of the given byte slices. It is used
// to bind a packet's payload together with the hashes it carries, which is
// the "hash concatenation" linking step of chained-hash schemes.
func HashConcat(parts ...[]byte) Digest {
	var start time.Time
	in := instr.Load()
	if in != nil {
		start = time.Now()
	}
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var d Digest
	copy(d[:], h.Sum(nil))
	if in != nil {
		in.record(in.hashOps, in.hashNS, start)
	}
	return d
}

// MAC computes HMAC-SHA256 of data under key.
func MAC(key, data []byte) []byte {
	var start time.Time
	in := instr.Load()
	if in != nil {
		start = time.Now()
	}
	m := hmac.New(sha256.New, key)
	m.Write(data)
	sum := m.Sum(nil)
	if in != nil {
		in.record(in.macOps, in.macNS, start)
	}
	return sum
}

// VerifyMAC reports whether mac is a valid HMAC-SHA256 of data under key,
// in constant time.
func VerifyMAC(key, data, mac []byte) bool {
	return hmac.Equal(MAC(key, data), mac)
}

// Signer produces digital signatures. The sender holds a Signer; receivers
// hold the corresponding Verifier.
type Signer interface {
	// Sign signs data and returns the signature bytes.
	Sign(data []byte) []byte
	// Public returns the verification key corresponding to this signer.
	Public() Verifier
}

// Verifier checks digital signatures.
type Verifier interface {
	// Verify reports whether sig is a valid signature of data.
	Verify(data, sig []byte) bool
	// Bytes returns a serializable encoding of the public key.
	Bytes() []byte
}

type ed25519Signer struct {
	priv ed25519.PrivateKey
	pub  *ed25519Verifier // shared by every Public() caller
}

// ed25519Verifier is a public key plus a memo of the checks that already
// succeeded under it. Every verifier handed out by one signer's Public()
// is this one value, so all receivers of a scheme share the memo: one
// Ed25519 check serves every packet and receiver carrying the same
// signature.
type ed25519Verifier struct {
	pub ed25519.PublicKey
	// memo is nil until the first successful check, so a key that never
	// verifies anything costs nothing.
	memo atomic.Pointer[SigCache]
}

// keyMemoSize bounds each key's memo at 2*keyMemoSize proven checks: one
// full batch-signature flush's worth per generation.
const keyMemoSize = MaxBatch

var (
	_ Signer   = (*ed25519Signer)(nil)
	_ Verifier = (*ed25519Verifier)(nil)
)

// NewSigner deterministically derives an Ed25519 signer from a 32-byte seed.
// Deterministic derivation keeps simulations reproducible; production users
// would pass a seed from crypto/rand.
func NewSigner(seed []byte) (Signer, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("crypto: signer seed must be %d bytes, got %d", ed25519.SeedSize, len(seed))
	}
	priv := ed25519.NewKeyFromSeed(seed)
	pub, ok := priv.Public().(ed25519.PublicKey)
	if !ok {
		panic("crypto: ed25519 private key with non-ed25519 public key")
	}
	return &ed25519Signer{priv: priv, pub: &ed25519Verifier{pub: pub}}, nil
}

// NewSignerFromString derives a signer from an arbitrary-length string by
// hashing it down to a seed. Convenient for examples and tests.
func NewSignerFromString(s string) Signer {
	seed := sha256.Sum256([]byte(s))
	signer, err := NewSigner(seed[:])
	if err != nil {
		// Unreachable: the seed is always SeedSize bytes.
		panic(err)
	}
	return signer
}

func (s *ed25519Signer) Sign(data []byte) []byte {
	if in := instr.Load(); in != nil {
		start := time.Now()
		sig := ed25519.Sign(s.priv, data)
		in.record(in.signOps, in.signNS, start)
		return sig
	}
	return ed25519.Sign(s.priv, data)
}

func (s *ed25519Signer) Public() Verifier { return s.pub }

// Verify consults the key's memo before running Ed25519. Only successes
// are memoized, keyed by (public key, SHA-256 of data, signature bytes),
// so a hit is exactly as strong as the check it replays; a failing or
// forged signature misses every time and pays a real verify.
func (v *ed25519Verifier) Verify(data, sig []byte) bool {
	if len(sig) != ed25519.SignatureSize {
		return false
	}
	k := v.memoKey(data, sig)
	if m := v.memo.Load(); m != nil && m.seen(k) {
		return true
	}
	if !v.verify(data, sig) {
		return false
	}
	m := v.memo.Load()
	if m == nil {
		m = newSigCache(keyMemoSize)
		if !v.memo.CompareAndSwap(nil, m) {
			m = v.memo.Load()
		}
	}
	m.store(k)
	return true
}

// memoKey binds a check to this key, the message digest and the
// signature. The digest is taken directly rather than through HashBytes:
// memo bookkeeping is not a protocol hash and must not count in
// crypto.hash_ops.
func (v *ed25519Verifier) memoKey(data, sig []byte) sigKey {
	k := sigKey{msg: sha256.Sum256(data)}
	copy(k.pub[:], v.pub)
	copy(k.sig[:], sig)
	return k
}

// verify runs the real Ed25519 check; crypto.verify_ops counts only these.
func (v *ed25519Verifier) verify(data, sig []byte) bool {
	if in := instr.Load(); in != nil {
		start := time.Now()
		ok := ed25519.Verify(v.pub, data, sig)
		in.record(in.verifyOps, in.verifyNS, start)
		return ok
	}
	return ed25519.Verify(v.pub, data, sig)
}

func (v *ed25519Verifier) Bytes() []byte {
	out := make([]byte, len(v.pub))
	copy(out, v.pub)
	return out
}

// ParseVerifier reconstructs a Verifier from bytes produced by
// Verifier.Bytes.
func ParseVerifier(b []byte) (Verifier, error) {
	if len(b) != ed25519.PublicKeySize {
		return nil, errors.New("crypto: malformed public key")
	}
	pub := make(ed25519.PublicKey, len(b))
	copy(pub, b)
	return &ed25519Verifier{pub: pub}, nil
}
