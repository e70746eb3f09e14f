package main

// column is a growable per-message table of int64 values indexed by the
// global message index, owned by one goroutine while the run is live and
// read by others only after that goroutine has ended. Zero means unset:
// every timestamp stored is positive on the run's clock.
type column struct {
	chunks [][]int64
}

const (
	columnChunkBits = 14
	columnChunkMask = 1<<columnChunkBits - 1
)

func (c *column) set(i uint64, v int64) {
	for uint64(len(c.chunks))<<columnChunkBits <= i {
		c.chunks = append(c.chunks, make([]int64, 1<<columnChunkBits))
	}
	c.chunks[i>>columnChunkBits][i&columnChunkMask] = v
}

func (c *column) add(i uint64, d int64) int64 {
	v := c.get(i) + d
	c.set(i, v)
	return v
}

func (c *column) get(i uint64) int64 {
	if i>>columnChunkBits >= uint64(len(c.chunks)) {
		return 0
	}
	return c.chunks[i>>columnChunkBits][i&columnChunkMask]
}
