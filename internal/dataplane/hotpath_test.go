package dataplane

import (
	"testing"

	"repro/internal/packet"
)

// TestDataplaneLookupZeroAlloc is the dynamic counterpart of the static
// allocfree proof over the table's hot-path root (Table.Lookup): the lint
// hot-path coverage test in internal/core pins that root to this test by
// name. The reader fast path — hash, shard, snapshot load, map read,
// epoch stamp — must allocate nothing per lookup, hit or miss. The full
// per-frame path is TestRawPathZeroAlloc's.
func TestDataplaneLookupZeroAlloc(t *testing.T) {
	tb := NewTable(64)
	for i := 0; i < 1000; i++ {
		tb.Install(testTuple(i), testEntry(i))
	}
	hit := testTuple(123)
	miss := testTuple(5000)

	if n := testing.AllocsPerRun(1000, func() { tb.Lookup(hit) }); n != 0 {
		t.Fatalf("Lookup(hit) allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { tb.Lookup(miss) }); n != 0 {
		t.Fatalf("Lookup(miss) allocates %.1f/op", n)
	}

	// Hash and Bucket, the bucketing primitives under the lookup.
	if n := testing.AllocsPerRun(1000, func() { _ = packet.Bucket(hit.Hash(), 64) }); n != 0 {
		t.Fatalf("Hash+Bucket allocates %.1f/op", n)
	}
}
