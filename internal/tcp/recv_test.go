package tcp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
)

// TestQueuedFINOvertakenByData drives the receive path with out-of-order
// FIN segments that later in-order data runs past — a queued zero-length
// FIN marker at 1000 with rcvNxt reaching 1100 used to slice past the end
// of its empty payload in drainOOO. Each case must not panic, must
// deliver the in-order bytes exactly once, and must deliver the FIN at
// most once (exactly once when it sits where the data ends).
func TestQueuedFINOvertakenByData(t *testing.T) {
	cases := []struct {
		name     string
		queued   []int // payload length of the segment queued at queueAt (0: FIN only)
		queueAt  int
		wantFINs int
	}{
		{name: "fin marker behind rcvNxt", queued: []int{0}, queueAt: 1000, wantFINs: 0},
		{name: "data+fin behind rcvNxt", queued: []int{100}, queueAt: 900, wantFINs: 0},
		{name: "fin marker one short of rcvNxt", queued: []int{0}, queueAt: 1099, wantFINs: 0},
		{name: "fin marker at rcvNxt", queued: []int{0}, queueAt: 1100, wantFINs: 1},
		{name: "data+fin ending at rcvNxt", queued: []int{50}, queueAt: 1050, wantFINs: 1},
		{name: "data+fin past rcvNxt", queued: []int{100}, queueAt: 1050, wantFINs: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := establishedServerConn(t)
			var got bytes.Buffer
			fins := 0
			c.OnData = func(b []byte) { got.Write(b) }
			c.OnPeerFIN = func() { fins++ }

			stream := make([]byte, 2000)
			for i := range stream {
				stream[i] = byte(i * 7)
			}
			base := c.RcvNxt()
			seg := func(off, n int, flags packet.TCPFlags) *packet.Packet {
				return packet.NewTCP(c.Tuple().Reverse(), flags, packet.SeqAdd(base, int64(off)), 0, stream[off:off+n])
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("receive path panicked: %v", r)
				}
			}()
			for _, n := range tc.queued {
				c.processData(seg(tc.queueAt, n, packet.FlagACK|packet.FlagFIN))
			}
			c.processData(seg(0, 1100, packet.FlagACK))
			// Retransmissions of everything already seen change nothing.
			c.processData(seg(0, 1100, packet.FlagACK))
			for _, n := range tc.queued {
				c.processData(seg(tc.queueAt, n, packet.FlagACK|packet.FlagFIN))
			}

			want := 1100
			if end := tc.queueAt + tc.queued[0]; tc.wantFINs == 1 && end > want {
				want = end
			}
			if !bytes.Equal(got.Bytes(), stream[:want]) {
				t.Fatalf("delivered %d bytes, want the first %d of the stream exactly once", got.Len(), want)
			}
			if fins != tc.wantFINs {
				t.Fatalf("FIN delivered %d times, want %d", fins, tc.wantFINs)
			}
		})
	}
}

// establishedServerConn returns the server end of a freshly established
// connection with no data exchanged.
func establishedServerConn(t *testing.T) *Conn {
	t.Helper()
	h := newHarness(t, netsim.LinkConfig{Delay: time.Millisecond}, 1)
	h.sinkServer(t, 80)
	h.client.Connect(h.hs.Addr, 80, Config{})
	h.eng.Run(time.Second)
	if len(h.accepted) != 1 || h.accepted[0].State() != StateEstablished {
		t.Fatalf("no established server connection: %d accepted", len(h.accepted))
	}
	return h.accepted[0]
}
