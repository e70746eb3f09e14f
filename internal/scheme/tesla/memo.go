package tesla

import (
	"sync"
	"sync/atomic"

	"mcauth/internal/crypto"
)

// chainMemoSize bounds the memo at 2*chainMemoSize commitments (two
// generations, as in crypto.SigCache): every block of a stream commits to
// a fresh chain, so only recent blocks' chains are worth keeping.
const chainMemoSize = 64

// chainMemo is a Scheme's memo of chain facts its verifiers have proven,
// keyed by the commitment of a signature-verified bootstrap. The facts
// are timeless — "K_i is the i-th preimage of this commitment" and "K'_i
// is the MAC key derived from K_i" — so sharing them across receivers
// skips PRF work without touching any receiver's safety condition, which
// depends only on that receiver's own arrival times. Only proven facts
// enter it. Safe for concurrent use.
//
// Sharing pays only when several verifiers of one Scheme verify the same
// block (netsim's receivers); a library receiver builds one verifier per
// block. So the first bootstrap of a commitment only notes it (a nil
// entry), and the chain is allocated when a second verifier presents the
// same commitment: a lone verifier keeps the unshared path.
type chainMemo struct {
	mu        sync.Mutex
	cur, prev map[[crypto.KeySize]byte]*provenChain
}

func newChainMemo() *chainMemo {
	return &chainMemo{cur: make(map[[crypto.KeySize]byte]*provenChain)}
}

// chain returns the proven chain for a signature-verified bootstrap's
// commitment, creating it when the commitment is seen a second time; nil
// on first sight, when the commitment cannot anchor a chain (wrong
// length) or when it was seen with another block size.
func (m *chainMemo) chain(commitment []byte, n int) *provenChain {
	if len(commitment) != crypto.KeySize {
		return nil
	}
	k := [crypto.KeySize]byte(commitment)
	m.mu.Lock()
	defer m.mu.Unlock()
	c, seen := m.cur[k]
	if !seen {
		if c, seen = m.prev[k]; seen {
			delete(m.prev, k)
		}
		if len(m.cur) >= chainMemoSize {
			m.prev = m.cur
			m.cur = make(map[[crypto.KeySize]byte]*provenChain, chainMemoSize)
		}
		m.cur[k] = c
	}
	if !seen {
		return nil
	}
	if c == nil {
		c = newProvenChain(k, n)
		m.cur[k] = c
	}
	if len(c.slots) != n+1 {
		return nil
	}
	return c
}

// provenChain holds one commitment's proven prefix: slots[0].key is the
// commitment and slots[i-1].key = PRF(slots[i].key) for every i <= top,
// so it is a genuine chain by construction, whatever the order receivers
// extend it in. Writers serialize on mu and only ever write keys above
// top (and MAC keys not yet marked), publishing with an atomic store;
// readers load top or the slot's flag first and then read without the
// lock.
type provenChain struct {
	mu    sync.Mutex
	top   atomic.Int32
	slots []chainSlot
}

// chainSlot is interval i's chain key K_i and, once haveMAC is set, the
// MAC key K'_i derived from it.
type chainSlot struct {
	key, mac [crypto.KeySize]byte
	haveMAC  atomic.Bool
}

func newProvenChain(commitment [crypto.KeySize]byte, n int) *provenChain {
	c := &provenChain{slots: make([]chainSlot, n+1)}
	c.slots[0].key = commitment
	return c
}

// covers reports whether key is the proven K_idx and bestKey the proven
// K_best: then the PRF walk from key down to bestKey would succeed and
// derive exactly the proven keys (best, idx].
func (c *provenChain) covers(idx int, key []byte, best int, bestKey []byte) bool {
	if c == nil || idx > int(c.top.Load()) {
		return false
	}
	return c.slots[idx].key == [crypto.KeySize]byte(key) &&
		len(bestKey) == crypto.KeySize && c.slots[best].key == [crypto.KeySize]byte(bestKey)
}

// copyInto copies the proven keys (from, to] into dst; covers must have
// held for to.
func (c *provenChain) copyInto(dst [][crypto.KeySize]byte, from, to int) {
	for i := from + 1; i <= to; i++ {
		dst[i] = c.slots[i].key
	}
}

// extend publishes a receiver's proven chain keys[1..idx] (keys[0] unused:
// the receiver's anchor is this chain's commitment) past the current top.
// It appends only where the receiver's key at top matches the memo's, so
// the memo stays one PRF chain.
func (c *provenChain) extend(keys [][crypto.KeySize]byte, idx int) {
	if c == nil || idx <= int(c.top.Load()) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	top := int(c.top.Load())
	if idx <= top || (top > 0 && keys[top] != c.slots[top].key) {
		return
	}
	for i := top + 1; i <= idx; i++ {
		c.slots[i].key = keys[i]
	}
	c.top.Store(int32(idx))
}

// macKeyInto copies the memoized MAC key for interval i into out when it
// was derived from exactly chainKey.
func (c *provenChain) macKeyInto(out []byte, i int, chainKey []byte) bool {
	if c == nil || i > int(c.top.Load()) {
		return false
	}
	slot := &c.slots[i]
	if !slot.haveMAC.Load() || slot.key != [crypto.KeySize]byte(chainKey) {
		return false
	}
	copy(out, slot.mac[:])
	return true
}

// storeMAC memoizes macKey, derived from chainKey, for interval i if
// chainKey is the proven K_i.
func (c *provenChain) storeMAC(i int, chainKey, macKey []byte) {
	if c == nil || i > int(c.top.Load()) || c.slots[i].haveMAC.Load() || c.slots[i].key != [crypto.KeySize]byte(chainKey) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if slot := &c.slots[i]; !slot.haveMAC.Load() {
		slot.mac = [crypto.KeySize]byte(macKey)
		slot.haveMAC.Store(true)
	}
}
