package core

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/packet"
)

// TestObsStateNameConstants cross-checks the span builder's state-name
// constants against this package's String renderings. obs cannot import
// core, so it matches on rendered names — this test is what keeps the two
// vocabularies from drifting.
func TestObsStateNameConstants(t *testing.T) {
	pairs := []struct {
		got  string
		want string
	}{
		{RcLocking.String(), obs.StLocking},
		{RcSettingUp.String(), obs.StSettingUp},
		{RcStateWait.String(), obs.StStateWait},
		{RcTwoPath.String(), obs.StTwoPath},
		{RcDone.String(), obs.StDone},
		{RcFailed.String(), obs.StFailed},
	}
	for _, p := range pairs {
		if p.got != p.want {
			t.Fatalf("core renders %q, obs span builder matches %q", p.got, p.want)
		}
	}
}

// TestRewritePathZeroAlloc is the benchmark guard of the observability
// PR: the instrumented per-packet rewrite path must allocate nothing when
// the host is unobserved (nil recorder) and nothing when a recorder is
// attached with the per-packet kind disabled — events are stack-built
// values and the emit call returns before touching storage.
func TestRewritePathZeroAlloc(t *testing.T) {
	env := newBenchEnv(1)
	a := env.aClient
	sess := &Session{IDLeft: packet.FiveTuple{SrcIP: 1, DstIP: 2}, IDRight: packet.FiveTuple{SrcIP: 1, DstIP: 2}}
	e := &rewriteEntry{
		Rule: Rule{To: packet.FiveTuple{SrcIP: 9, DstIP: 8, SrcPort: 7, DstPort: 6},
			AckAdd: -12345, TSEcrAdd: -77},
		sess: sess,
	}
	p := packet.NewTCP(packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4},
		packet.FlagACK, 100, 200, make([]byte, 1400))
	p.Opts.TS = &packet.Timestamp{Val: 1, Ecr: 2}
	a.Cfg.RewriteCost = 0

	if n := testing.AllocsPerRun(1000, func() { a.applyEgress(p, e) }); n != 0 {
		t.Fatalf("unobserved applyEgress allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { a.applyIngress(p, e) }); n != 0 {
		t.Fatalf("unobserved applyIngress allocates %.1f/op", n)
	}

	// The bare shared kernel (what internal/dataplane runs per packet,
	// with none of the agent's tracking around it) must also be clean.
	re := &e.Rule
	ri := &Rule{To: packet.FiveTuple{SrcIP: 2, DstIP: 1}, SeqAdd: 41, TSAdd: 13}
	if n := testing.AllocsPerRun(1000, func() { re.ApplyEgress(p, true) }); n != 0 {
		t.Fatalf("Rule.ApplyEgress allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { ri.ApplyIngress(p, true) }); n != 0 {
		t.Fatalf("Rule.ApplyIngress allocates %.1f/op", n)
	}

	hub := obs.NewHub(env.eng)
	r := hub.Recorder("client")
	r.Disable(obs.KRewrite)
	a.SetRecorder(r)
	if n := testing.AllocsPerRun(1000, func() { a.applyEgress(p, e) }); n != 0 {
		t.Fatalf("disabled-kind applyEgress allocates %.1f/op", n)
	}
	if got := r.Count(obs.KRewrite); got != 0 {
		t.Fatalf("disabled kind still counted: %d", got)
	}

	// Sanity: with the kind enabled the same path does emit.
	r.Enable(obs.KRewrite)
	a.applyEgress(p, e)
	if r.Count(obs.KRewrite) != 1 {
		t.Fatal("enabled rewrite kind did not emit")
	}
}

// TestEachSubsession checks the per-subsession packet/byte totals the
// metrics registry reports.
func TestEachSubsession(t *testing.T) {
	env := newBenchEnv(2)
	a := env.aClient
	e := &rewriteEntry{Rule: Rule{To: packet.FiveTuple{SrcIP: 9, DstIP: 8}}}
	from := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	a.egress[from] = e
	p := packet.NewTCP(from, packet.FlagACK, 1, 1, make([]byte, 100))
	a.Cfg.RewriteCost = 0
	a.applyEgress(p, e)
	var saw int
	a.EachSubsession(func(dir string, f, to packet.FiveTuple, pkts, bytes uint64) {
		saw++
		if dir != "egress" || f != from || to != e.To || pkts != 1 || bytes != 100 {
			t.Fatalf("subsession %s %v->%v pkts=%d bytes=%d", dir, f, to, pkts, bytes)
		}
	})
	if saw != 1 {
		t.Fatalf("EachSubsession visited %d entries", saw)
	}
}

// TestHotpathHelpersZeroAlloc pins the packet-layer and obs-layer members
// of the statically proven hot-path root set (internal/lint's allocfree
// rule) at zero allocations per call. Core's own roots are covered by
// TestRewritePathZeroAlloc above and tcp's by TestTCPFastPathZeroAlloc;
// TestHotpathRootsCoverage ties the three tests to the declared root list.
func TestHotpathHelpersZeroAlloc(t *testing.T) {
	env := newBenchEnv(3)
	ft := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: packet.ProtoTCP}
	p := packet.NewTCP(ft, packet.FlagACK|packet.FlagPSH, 100, 200, make([]byte, 64))
	nt := packet.FiveTuple{SrcIP: 9, DstIP: 8, SrcPort: 7, DstPort: 6, Proto: packet.ProtoTCP}

	var nilRec *obs.Recorder
	hub := obs.NewHub(env.eng)
	disabled := hub.Recorder("helper-test")
	disabled.Disable(obs.KRewrite)
	ev := obs.Event{Kind: obs.KRewrite, Sess: ft, Dir: "egress", Bytes: 64}

	kernels := []struct {
		name string
		fn   func()
	}{
		{"packet.SeqAdd", func() { _ = packet.SeqAdd(100, 50) }},
		{"packet.SeqDiff", func() { _ = packet.SeqDiff(100, 200) }},
		{"packet.SeqLT", func() { _ = packet.SeqLT(100, 200) }},
		{"packet.SeqLEQ", func() { _ = packet.SeqLEQ(100, 200) }},
		{"packet.SeqGT", func() { _ = packet.SeqGT(100, 200) }},
		{"packet.SeqGEQ", func() { _ = packet.SeqGEQ(100, 200) }},
		{"packet.SeqMax", func() { _ = packet.SeqMax(100, 200) }},
		{"packet.SeqMin", func() { _ = packet.SeqMin(100, 200) }},
		{"packet.ChecksumUpdate16", func() { _ = packet.ChecksumUpdate16(0x1234, 1, 2) }},
		{"packet.ChecksumUpdate32", func() { _ = packet.ChecksumUpdate32(0x1234, 1, 2) }},
		{"packet.FiveTuple.Reverse", func() { _ = ft.Reverse() }},
		{"packet.Packet.DataLen", func() { _ = p.DataLen() }},
		{"packet.Packet.SeqEnd", func() { _ = p.SeqEnd() }},
		{"packet.Packet.RewriteTuple", func() { p.RewriteTuple(nt) }},
		{"packet.Packet.RewriteSeqAck", func() { p.RewriteSeqAck(300, 400) }},
		{"packet.TCPFlags.Has", func() { _ = p.Flags.Has(packet.FlagACK) }},
		{"packet.FiveTuple.Hash", func() { _ = ft.Hash() }},
		{"packet.Bucket", func() { _ = packet.Bucket(ft.Hash(), 64) }},
		{"obs.Recorder.Emit(nil)", func() { nilRec.Emit(ev) }},
		{"obs.Recorder.Emit(disabled)", func() { disabled.Emit(ev) }},
	}
	for _, k := range kernels {
		if n := testing.AllocsPerRun(200, k.fn); n != 0 {
			t.Errorf("%s: %.1f allocs/run, want 0", k.name, n)
		}
	}
}

// TestHotpathRootsCoverage pins the static proof and the dynamic
// measurements to the same function set: every root the allocfree rule
// proves allocation-free must be exercised by an AllocsPerRun test, and
// every entry of this coverage map must still be a declared root. Adding
// a root without a dynamic test (or retiring one without pruning the
// map) fails here.
func TestHotpathRootsCoverage(t *testing.T) {
	covered := map[string]string{
		"internal/core.Agent.applyEgress":         "TestRewritePathZeroAlloc",
		"internal/core.Agent.applyIngress":        "TestRewritePathZeroAlloc",
		"internal/core.Rule.ApplyEgress":          "TestRewritePathZeroAlloc",
		"internal/core.Rule.ApplyIngress":         "TestRewritePathZeroAlloc",
		"internal/dataplane.Table.Lookup":         "TestDataplaneLookupZeroAlloc",
		"internal/dataplane.worker.processRaw":    "TestRawPathZeroAlloc",
		"internal/dataplane.RawRule.ApplyEgress":  "TestRawPathZeroAlloc",
		"internal/dataplane.RawRule.ApplyIngress": "TestRawPathZeroAlloc",
		"internal/packet.ParseView":               "TestRawPathZeroAlloc",
		"internal/packet.FiveTuple.Hash":          "TestHotpathHelpersZeroAlloc",
		"internal/packet.Bucket":                  "TestHotpathHelpersZeroAlloc",
		"internal/packet.SeqAdd":                  "TestHotpathHelpersZeroAlloc",
		"internal/packet.SeqDiff":                 "TestHotpathHelpersZeroAlloc",
		"internal/packet.SeqLT":                   "TestHotpathHelpersZeroAlloc",
		"internal/packet.SeqLEQ":                  "TestHotpathHelpersZeroAlloc",
		"internal/packet.SeqGT":                   "TestHotpathHelpersZeroAlloc",
		"internal/packet.SeqGEQ":                  "TestHotpathHelpersZeroAlloc",
		"internal/packet.SeqMax":                  "TestHotpathHelpersZeroAlloc",
		"internal/packet.SeqMin":                  "TestHotpathHelpersZeroAlloc",
		"internal/packet.ChecksumUpdate16":        "TestHotpathHelpersZeroAlloc",
		"internal/packet.ChecksumUpdate32":        "TestHotpathHelpersZeroAlloc",
		"internal/packet.FiveTuple.Reverse":       "TestHotpathHelpersZeroAlloc",
		"internal/packet.Packet.DataLen":          "TestHotpathHelpersZeroAlloc",
		"internal/packet.Packet.SeqEnd":           "TestHotpathHelpersZeroAlloc",
		"internal/packet.Packet.RewriteTuple":     "TestHotpathHelpersZeroAlloc",
		"internal/packet.Packet.RewriteSeqAck":    "TestHotpathHelpersZeroAlloc",
		"internal/packet.TCPFlags.Has":            "TestHotpathHelpersZeroAlloc",
		"internal/obs.Recorder.Emit":              "TestHotpathHelpersZeroAlloc",
		"internal/tcp.Conn.flight":                "TestTCPFastPathZeroAlloc",
		"internal/tcp.Conn.sendWindow":            "TestTCPFastPathZeroAlloc",
		"internal/tcp.Conn.recvWindow":            "TestTCPFastPathZeroAlloc",
		"internal/tcp.Conn.advertisedWindow":      "TestTCPFastPathZeroAlloc",
		"internal/tcp.Conn.sampleRTT":             "TestTCPFastPathZeroAlloc",
		"internal/tcp.Conn.backoffRTO":            "TestTCPFastPathZeroAlloc",
		"internal/tcp.sackScoreboard.isSacked":    "TestTCPFastPathZeroAlloc",
		"internal/tcp.sackScoreboard.sackedAbove": "TestTCPFastPathZeroAlloc",
		"internal/tcp.sackScoreboard.firstHole":   "TestTCPFastPathZeroAlloc",
	}
	roots := lint.DefaultHotpathRoots()
	for _, r := range roots {
		if covered[r] == "" {
			t.Errorf("hot-path root %s has no dynamic AllocsPerRun test", r)
		}
	}
	rootSet := map[string]bool{}
	for _, r := range roots {
		rootSet[r] = true
	}
	for r, test := range covered {
		if !rootSet[r] {
			t.Errorf("coverage map entry %s (%s) is not a declared root; prune it", r, test)
		}
	}
}
