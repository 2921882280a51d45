package dataplane

import "sync/atomic"

// Ring is a fixed-capacity single-producer/single-consumer queue of
// raw frames: the software model of one NIC RSS queue feeding one core.
// Exactly one goroutine may call Push and exactly one may call PopBatch;
// under that contract the two indices need no CAS — the producer owns
// tail, the consumer owns head, and each side only reads the other's
// index.
//
// Memory ordering: the producer writes the slot before tail.Store, and
// the consumer's tail.Load is an acquire of that store (Go atomics are
// sequentially consistent), so the consumer never reads an unpublished
// slot. Symmetrically head.Store in PopBatch releases the slots back:
// the producer's head.Load proves the consumer is done with them before
// they are overwritten. A producer recycling frame buffers may
// therefore reuse one only after head has advanced past it — with a
// pool of at least ring capacity + consumer batch size distinct
// buffers, a feeder can run allocation-free without ever aliasing a
// buffer the worker still holds.
//
// head and tail sit on separate cache lines: they are the only
// cross-core traffic, and sharing a line would make every Push/PopBatch
// pair bounce it.
type Ring struct {
	mask  uint64
	slots [][]byte
	_     [64]byte
	head  atomic.Uint64 // next slot to pop; owned by the consumer
	_     [64]byte
	tail  atomic.Uint64 // next slot to push; owned by the producer
	_     [64]byte
}

// NewRing builds a ring with the given capacity, rounded up to a power
// of two (minimum 2).
func NewRing(capacity int) *Ring {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), slots: make([][]byte, n)}
}

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return len(r.slots) }

// Len estimates the queued frame count. Exact only from the producer
// or consumer goroutine; racy (but monotonic-safe) elsewhere.
func (r *Ring) Len() int { return int(r.tail.Load() - r.head.Load()) }

// Push enqueues a frame, returning false when the ring is full (the
// caller decides whether to spin, drop, or backpressure). Producer side
// only.
func (r *Ring) Push(frame []byte) bool {
	t := r.tail.Load()
	if t-r.head.Load() > r.mask {
		return false
	}
	r.slots[t&r.mask] = frame
	r.tail.Store(t + 1)
	return true
}

// PopBatch dequeues up to len(buf) frames into buf and returns the
// count (0 when empty). Consumer side only.
func (r *Ring) PopBatch(buf [][]byte) int {
	h := r.head.Load()
	n := r.tail.Load() - h
	if n == 0 {
		return 0
	}
	if n > uint64(len(buf)) {
		n = uint64(len(buf))
	}
	for i := uint64(0); i < n; i++ {
		buf[i] = r.slots[(h+i)&r.mask]
	}
	r.head.Store(h + n)
	return int(n)
}
