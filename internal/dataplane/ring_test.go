package dataplane

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
)

func TestRingBasics(t *testing.T) {
	r := NewRing(4)
	if r.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", r.Cap())
	}
	if got := NewRing(5).Cap(); got != 8 {
		t.Fatalf("NewRing(5).Cap() = %d, want 8", got)
	}
	fs := make([][]byte, 5)
	for i := range fs {
		fs[i] = []byte{byte(i)}
	}
	for i := 0; i < 4; i++ {
		if !r.Push(fs[i]) {
			t.Fatalf("push %d failed on non-full ring", i)
		}
	}
	if r.Push(fs[4]) {
		t.Fatal("push succeeded on full ring")
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	buf := make([][]byte, 3)
	if n := r.PopBatch(buf); n != 3 {
		t.Fatalf("PopBatch = %d, want 3", n)
	}
	for i := 0; i < 3; i++ {
		if &buf[i][0] != &fs[i][0] {
			t.Fatalf("popped %v at %d, want %v", buf[i], i, fs[i])
		}
	}
	if !r.Push(fs[4]) {
		t.Fatal("push failed after pop freed slots")
	}
	if n := r.PopBatch(buf); n != 2 || &buf[0][0] != &fs[3][0] || &buf[1][0] != &fs[4][0] {
		t.Fatalf("final PopBatch = %d (%v, %v)", n, buf[0], buf[1])
	}
	if n := r.PopBatch(buf); n != 0 {
		t.Fatalf("PopBatch on empty ring = %d", n)
	}
}

// TestRingSPSC runs the producer and consumer on separate goroutines
// under -race: every frame arrives exactly once, in order, across
// many wraparounds.
func TestRingSPSC(t *testing.T) {
	const total = 200000
	r := NewRing(64)
	pool := make([][]byte, total)
	for i := range pool {
		pool[i] = binary.BigEndian.AppendUint32(nil, uint32(i))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, f := range pool {
			for !r.Push(f) {
				runtime.Gosched()
			}
		}
	}()
	buf := make([][]byte, 16)
	next := uint32(0)
	for int(next) < total {
		n := r.PopBatch(buf)
		if n == 0 {
			runtime.Gosched()
			continue
		}
		for i := 0; i < n; i++ {
			if got := binary.BigEndian.Uint32(buf[i]); got != next {
				t.Fatalf("out of order: got frame %d, want %d", got, next)
			}
			next++
		}
	}
	wg.Wait()
	if r.Len() != 0 {
		t.Fatalf("ring not drained: Len = %d", r.Len())
	}
}
