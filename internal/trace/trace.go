// Package trace captures packets at host boundaries — a tcpdump for the
// simulated network. Captures record virtual timestamps, direction, and
// the full header; they render as tcpdump-style text and support
// five-tuple filters. Tests and examples use traces to assert on exact
// wire behaviour (e.g. that subsession five-tuples, not session headers,
// appear between hosts).
package trace

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"strings"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Record is one captured packet.
type Record struct {
	Time    sim.Time
	Host    string
	Dir     netsim.Direction
	Tuple   packet.FiveTuple
	Flags   packet.TCPFlags
	Seq     uint32
	Ack     uint32
	Len     int
	Window  uint16
	HasTS   bool
	SACKLen int
}

// String renders the record tcpdump-style.
func (r Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12v %-10s %-7v %v", r.Time, r.Host, r.Dir, r.Tuple)
	if r.Tuple.Proto == packet.ProtoTCP {
		fmt.Fprintf(&b, " %v seq=%d ack=%d len=%d win=%d", r.Flags, r.Seq, r.Ack, r.Len, r.Window)
		if r.SACKLen > 0 {
			fmt.Fprintf(&b, " sack=%d", r.SACKLen)
		}
	} else {
		fmt.Fprintf(&b, " len=%d", r.Len)
	}
	return b.String()
}

// Filter selects packets; nil matches everything.
type Filter func(p *packet.Packet) bool

// TCPOnly matches TCP packets.
func TCPOnly(p *packet.Packet) bool { return p.IsTCP() }

// Port matches packets with the given source or destination port.
func Port(port packet.Port) Filter {
	return func(p *packet.Packet) bool {
		return p.Tuple.SrcPort == port || p.Tuple.DstPort == port
	}
}

// Between matches packets exchanged between two addresses (either
// direction).
func Between(a, b packet.Addr) Filter {
	return func(p *packet.Packet) bool {
		return (p.Tuple.SrcIP == a && p.Tuple.DstIP == b) ||
			(p.Tuple.SrcIP == b && p.Tuple.DstIP == a)
	}
}

// And combines filters conjunctively.
func And(fs ...Filter) Filter {
	return func(p *packet.Packet) bool {
		for _, f := range fs {
			if f != nil && !f(p) {
				return false
			}
		}
		return true
	}
}

// Capture accumulates records from one or more hosts.
type Capture struct {
	eng    *sim.Engine
	filter Filter
	recs   []Record
	// Limit bounds stored records (0 = 100k); older records are kept,
	// new ones dropped, and Truncated set.
	Limit     int
	Truncated bool
}

// New creates a capture with an optional filter.
func New(eng *sim.Engine, filter Filter) *Capture {
	return &Capture{eng: eng, filter: filter, Limit: 100_000}
}

// Attach starts capturing at a host boundary, both directions. The hook
// observes packets after earlier hooks (e.g. a Dysco agent) have run when
// attached after them, so what it sees is what the wire sees.
func (c *Capture) Attach(h *netsim.Host) {
	hook := func(p *packet.Packet, dir netsim.Direction) netsim.Verdict {
		c.observe(h.Name, p, dir)
		return netsim.Pass
	}
	h.AddIngressHook(hook)
	h.AddEgressHook(hook)
}

func (c *Capture) observe(host string, p *packet.Packet, dir netsim.Direction) {
	if c.filter != nil && !c.filter(p) {
		return
	}
	// Treat a non-positive Limit as the documented default so a caller who
	// zeroes the field (or builds a Capture literal) still captures — the
	// old comparison made Limit 0 silently drop every record.
	limit := c.Limit
	if limit <= 0 {
		limit = 100_000
	}
	if len(c.recs) >= limit {
		c.Truncated = true
		return
	}
	r := Record{
		Time:  c.eng.Now(),
		Host:  host,
		Dir:   dir,
		Tuple: p.Tuple,
		Flags: p.Flags,
		Seq:   p.Seq,
		Ack:   p.Ack,
		Len:   p.DataLen(),
	}
	if p.IsTCP() {
		r.Window = p.Window
		r.HasTS = p.Opts.TS != nil
		r.SACKLen = len(p.Opts.SACK)
	}
	c.recs = append(c.recs, r)
}

// Records returns the captured packets in order.
func (c *Capture) Records() []Record { return c.recs }

// Count returns captured packet count.
func (c *Capture) Count() int { return len(c.recs) }

// Grep returns records whose rendered line contains substr.
func (c *Capture) Grep(substr string) []Record {
	var out []Record
	for _, r := range c.recs {
		if strings.Contains(r.String(), substr) {
			out = append(out, r)
		}
	}
	return out
}

// Tuples returns the distinct five-tuples observed, in first-seen order.
func (c *Capture) Tuples() []packet.FiveTuple {
	seen := make(map[packet.FiveTuple]bool)
	var out []packet.FiveTuple
	for _, r := range c.recs {
		if !seen[r.Tuple] {
			seen[r.Tuple] = true
			out = append(out, r.Tuple)
		}
	}
	return out
}

// Hash returns a 64-bit FNV-1a digest of the rendered capture. Two runs
// of the same scenario with the same seed must produce equal hashes —
// the determinism regression tests compare exactly this.
func (c *Capture) Hash() uint64 {
	h := fnv.New64a()
	for _, r := range c.recs {
		h.Write([]byte(r.String()))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// recordJSON is the wire form of one record: the same conventions as the
// obs event log (one JSON object per line; "time" in virtual nanoseconds;
// "host"; five-tuples rendered by their String form) so one consumer can
// join packet captures with structured events.
type recordJSON struct {
	Time  int64  `json:"time"`
	Host  string `json:"host"`
	Dir   string `json:"dir"`
	Tuple string `json:"tuple"`
	Flags string `json:"flags,omitempty"`
	Seq   uint32 `json:"seq"`
	Ack   uint32 `json:"ack"`
	Len   int    `json:"len"`
	Win   uint16 `json:"win"`
	TS    bool   `json:"ts,omitempty"`
	SACK  int    `json:"sack,omitempty"`
}

// MarshalJSON renders the record in the shared JSON-lines schema.
func (r Record) MarshalJSON() ([]byte, error) {
	j := recordJSON{
		Time:  int64(r.Time),
		Host:  r.Host,
		Dir:   r.Dir.String(),
		Tuple: r.Tuple.String(),
		Seq:   r.Seq,
		Ack:   r.Ack,
		Len:   r.Len,
		Win:   r.Window,
		TS:    r.HasTS,
		SACK:  r.SACKLen,
	}
	if r.Tuple.Proto == packet.ProtoTCP {
		j.Flags = r.Flags.String()
	}
	return json.Marshal(j)
}

// DumpJSON writes the capture as JSON lines (one record object per line),
// byte-identical across same-seed runs.
func (c *Capture) DumpJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, r := range c.recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// Dump renders the whole capture.
func (c *Capture) Dump() string {
	var b strings.Builder
	for _, r := range c.recs {
		b.WriteString(r.String())
		b.WriteString("\n")
	}
	if c.Truncated {
		b.WriteString("... capture truncated ...\n")
	}
	return b.String()
}
