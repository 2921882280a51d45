package dataplane

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/packet"
)

// RawDiffConfig parameterizes one raw-vs-struct equivalence run.
type RawDiffConfig struct {
	// Seed drives every random choice (option ablations, payload
	// lengths, corruption sites); the same seed replays the same run.
	Seed int64
	// Flows is the stable flow count. Flows cycle through the option
	// ablation variants, a fraction are UDP, and a fraction have no
	// entry installed (the Pass path must leave bytes untouched too).
	Flows int
	// PacketsPerFlow is how many frames each flow sends.
	PacketsPerFlow int
	// Malformed is how many corrupted frames are interleaved with the
	// traffic. Every one must come back byte-identical and be counted
	// Rejected.
	Malformed int
	// Churners/ChurnOps run a concurrent control plane that installs
	// and removes versioned churnRule entries; each churner owns a
	// disjoint subset of the churned keys.
	Churners int
	ChurnOps int
	// ChurnKeys, when positive, is the count of churned keys that live
	// traffic also addresses: frames to them are interleaved with the
	// stable flows and race the churners by design, so each must come
	// back untouched or rewritten by exactly one installed version
	// (checkChurnFrame). Zero churns 64 keys per churner that no frame
	// addresses, keeping every expected byte deterministic.
	ChurnKeys int
	// Engine configures the engine under test.
	Engine Config
}

func (c *RawDiffConfig) fillDefaults() {
	if c.Flows <= 0 {
		c.Flows = 192
	}
	if c.PacketsPerFlow <= 0 {
		c.PacketsPerFlow = 8
	}
	if c.Malformed < 0 {
		c.Malformed = 0
	}
	if c.Churners <= 0 {
		c.Churners = 4
	}
	if c.ChurnOps <= 0 {
		c.ChurnOps = 300
	}
}

// flowTuple is stable flow i's five-tuple.
func flowTuple(i int) packet.FiveTuple {
	return packet.FiveTuple{
		Proto:   packet.ProtoTCP,
		SrcIP:   packet.MakeAddr(10, 0, byte(i>>8), byte(i)),
		DstIP:   packet.MakeAddr(10, 1, byte(i>>8), byte(i)),
		SrcPort: packet.Port(40000 + i%20000),
		DstPort: 80,
	}
}

// stableEntry is stable flow i's rewrite, alternating directions so both
// sides of the kernel are diffed.
func stableEntry(i int) *Entry {
	d := int64(i%9000) + 1
	to := packet.FiveTuple{
		Proto:   packet.ProtoTCP,
		SrcIP:   packet.MakeAddr(20, 0, byte(i>>8), byte(i)),
		DstIP:   packet.MakeAddr(20, 1, byte(i>>8), byte(i)),
		SrcPort: packet.Port(30000 + i%20000),
		DstPort: 8080,
	}
	if i%2 == 0 {
		return &Entry{Dir: Egress, Rule: core.Rule{
			To: to, AckAdd: -d, TSEcrAdd: -3 * d,
			WinFrom: int8(i % 4), WinTo: int8((i + 1) % 4),
		}}
	}
	return &Entry{Dir: Ingress, Rule: core.Rule{To: to, SeqAdd: d, TSAdd: 3 * d}}
}

// churnKey is churn key j's five-tuple, disjoint from every flowTuple.
func churnKey(j int) packet.FiveTuple {
	return packet.FiveTuple{
		Proto:   packet.ProtoTCP,
		SrcIP:   packet.MakeAddr(172, 16, byte(j>>8), byte(j)),
		DstIP:   packet.MakeAddr(172, 17, byte(j>>8), byte(j)),
		SrcPort: packet.Port(50000 + j%10000),
		DstPort: 8081,
	}
}

// churnVersionMax bounds churn rule versions so the version survives a
// round trip through the port and seq fields checkChurnFrame reads it
// back from.
const churnVersionMax = 30000

// churnRule is version v of a churn key's entry. Every field is a
// function of (key, v), so a reader that observed a mix of two versions
// — a torn entry — would rewrite a frame into bytes no single version
// produces, which checkChurnFrame rejects. Immutable snapshot entries
// make that impossible; this rule is how the oracle would catch it if
// the protocol were broken.
func churnRule(key packet.FiveTuple, v uint64) *Entry {
	return &Entry{Dir: Ingress, Rule: core.Rule{
		To:     churnTo(key, v),
		SeqAdd: int64(v),
		TSAdd:  3 * int64(v),
	}}
}

// churnTo derives version v's rewrite target from the key.
func churnTo(key packet.FiveTuple, v uint64) packet.FiveTuple {
	to := key.Reverse()
	to.DstPort = packet.Port(10000 + v)
	return to
}

// rawFlowTuple is raw flow i's five-tuple: flowTuple's address plan, but
// every fifth flow is UDP so the transport dispatch in both kernels is
// diffed, not just the TCP arm.
func rawFlowTuple(i int) packet.FiveTuple {
	ft := flowTuple(i)
	if i%5 == 4 {
		ft.Proto = packet.ProtoUDP
	}
	return ft
}

// rawStableEntry is raw flow i's rewrite: stableEntry's delta plan with
// the To tuple's protocol matched to the flow.
func rawStableEntry(i int) *Entry {
	e := stableEntry(i)
	e.Rule.To.Proto = rawFlowTuple(i).Proto
	return e
}

// rawFlowHasEntry reports whether flow i gets an entry installed; every
// seventh flow is left unmatched to diff the Pass path.
func rawFlowHasEntry(i int) bool { return i%7 != 6 }

// rawFlowPacket builds frame k of flow i, cycling option ablations and
// payload lengths (including odd ones, so the checksum fold crosses the
// trailing-byte padding case) off the run's rng.
func rawFlowPacket(rng *rand.Rand, i, k int) *packet.Packet {
	ft := rawFlowTuple(i)
	payload := make([]byte, rng.Intn(8))
	for b := range payload {
		payload[b] = byte(rng.Intn(256))
	}
	if ft.Proto == packet.ProtoUDP {
		return packet.NewUDP(ft, payload)
	}
	p := packet.NewTCP(ft, packet.FlagACK, uint32(1000*i+10*k), uint32(500+k), payload)
	p.Window = uint16(1024 + k)
	switch (i + k) % 5 {
	case 0: // no options at all
	case 1: // timestamps only
		p.Opts.TS = &packet.Timestamp{Val: uint32(70000 + k), Ecr: uint32(80000 + k)}
	case 2: // SACK blocks only
		n := 1 + rng.Intn(3)
		for s := 0; s < n; s++ {
			base := uint32(5000*i + 100*s)
			p.Opts.SACK = append(p.Opts.SACK, packet.SACKBlock{Start: base, End: base + 50})
		}
	case 3: // timestamps + SACK + Dysco tag
		p.Opts.TS = &packet.Timestamp{Val: uint32(90000 + k), Ecr: uint32(91000 + k)}
		p.Opts.SACK = []packet.SACKBlock{{Start: uint32(6000 * i), End: uint32(6000*i + 77)}}
		p.Opts.HasDyscoTag = true
		p.Opts.DyscoTag = uint32(i)
	case 4: // SYN-shaped: handshake options, no ACK flag
		p.Flags = packet.FlagSYN
		p.Ack = 0
		p.Opts.MSS = 1460
		p.Opts.WScale = int8(rng.Intn(15))
		p.Opts.SACKPermitted = true
	}
	return p
}

// corruptFrame mangles a canonical frame so ParseView must reject it,
// picking one corruption site off the rng. The result is never a valid
// frame: the oracle demands it come back byte-identical.
func corruptFrame(rng *rand.Rand, frame []byte) []byte {
	b := append([]byte(nil), frame...)
	switch rng.Intn(6) {
	case 0: // truncate mid-frame
		b = b[:rng.Intn(len(b))]
	case 1: // IP version/IHL byte
		b[0] = 0x46
	case 2: // total length disagrees with the buffer
		b[packet.OffIPTotalLen]++
	case 3: // zero option length (walk cannot advance)
		hasOpts := b[packet.OffIPProto] == byte(packet.ProtoTCP) &&
			int(b[packet.IPHeaderLen+packet.OffTCPDataOff]>>4)*4 > packet.TCPFixedLen
		if hasOpts {
			b[packet.IPHeaderLen+packet.OffTCPOptions] = packet.OptDyscoTag
			b[packet.IPHeaderLen+packet.OffTCPOptions+1] = 0
		} else {
			b = b[:packet.IPHeaderLen/2]
		}
	case 4: // TCP data offset past the frame end
		if b[packet.OffIPProto] == byte(packet.ProtoTCP) {
			b[packet.IPHeaderLen+packet.OffTCPDataOff] = 0xf0
		} else {
			b[packet.IPHeaderLen+packet.OffUDPLen]++
		}
	case 5: // trailing garbage after the IP total length
		b = append(b, 0xcc)
	}
	return b
}

// RunRawDiff replays one identical frame sequence through the
// single-threaded struct pipeline (Parse → Ref.Process → Serialize) and
// through the engine's zero-copy raw path (FeedRaw → in-place rewrite),
// and returns an error on the first byte divergence. The struct pipeline
// recomputes every checksum from scratch during Serialize while the raw
// path folds RFC 1624 updates into the stored checksums, so byte equality
// is exactly the claim that incremental == full recompute on top of the
// claim that the two kernels implement the same §3.4/§4.2 translation.
// Corrupted frames must come back untouched and counted Rejected. With
// ChurnKeys set, frames to churned keys race concurrent Install/Remove
// calls on those very keys and must come back untouched or rewritten by
// one single installed version, which a torn or partially-installed
// entry cannot produce. Run it under -race: the race detector checks the
// snapshot-swap memory protocol while the oracle checks the bytes.
func RunRawDiff(cfg RawDiffConfig) error {
	cfg.fillDefaults()
	eng := New(cfg.Engine)
	ref := NewRef(cfg.Engine)

	for i := 0; i < cfg.Flows; i++ {
		if !rawFlowHasEntry(i) {
			continue
		}
		eng.table.Install(rawFlowTuple(i), rawStableEntry(i))
		ref.Install(rawFlowTuple(i), rawStableEntry(i))
	}

	// Build the frame sequence and its expected bytes. Each slot builds
	// the packet once, serializes it twice: one copy is pushed through
	// the struct pipeline now (computing the expected bytes), the other
	// is the live buffer the engine rewrites in place. A churn frame's
	// want is the frame as fed: its outcome is only known after the run.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var feed, want [][]byte
	var churned []bool
	wantRewritten, wantRejected := uint64(0), uint64(0)
	add := func(live, w []byte, churn bool) {
		feed = append(feed, live)
		want = append(want, w)
		churned = append(churned, churn)
	}
	addFlow := func(i, k int) {
		p := rawFlowPacket(rng, i, k)
		live := p.Serialize()
		if ref.Process(p) == Rewritten {
			wantRewritten++
		}
		add(live, p.Serialize(), false)
	}
	addMalformed := func() {
		base := rawFlowPacket(rng, rng.Intn(cfg.Flows), rng.Intn(cfg.PacketsPerFlow))
		bad := corruptFrame(rng, base.Serialize())
		if _, err := packet.ParseView(bad); err == nil {
			// Corruption happened to stay valid — never expected; fail
			// loudly rather than feed an unaccounted frame.
			panic(fmt.Sprintf("corruptFrame produced a valid frame: %x", bad))
		}
		wantRejected++
		add(bad, append([]byte(nil), bad...), false)
	}
	addChurn := func(j int) {
		frame := churnFrame(j)
		add(frame, append([]byte(nil), frame...), true)
	}
	malformedEvery := 0
	if cfg.Malformed > 0 {
		malformedEvery = 1 + cfg.Flows*cfg.PacketsPerFlow/cfg.Malformed
	}
	slot := 0
	for k := 0; k < cfg.PacketsPerFlow; k++ {
		for i := 0; i < cfg.Flows; i++ {
			addFlow(i, k)
			slot++
			if malformedEvery > 0 && slot%malformedEvery == 0 {
				addMalformed()
			}
			if cfg.ChurnKeys > 0 && rng.Intn(4) == 0 {
				addChurn(rng.Intn(cfg.ChurnKeys))
			}
		}
	}

	eng.Start()

	// Concurrent control plane. Each churner owns the keys congruent to
	// its index, so per-key version order is deterministic even though
	// cross-key interleaving is not. Without ChurnKeys the keys are ones
	// no fed frame addresses: the churn still races the snapshot swap
	// against the raw readers without making any expected byte racy.
	keys := cfg.ChurnKeys
	if keys <= 0 {
		keys = 64 * cfg.Churners
	}
	var churnWG sync.WaitGroup
	for c := 0; c < cfg.Churners; c++ {
		churnWG.Add(1)
		go func(c int) {
			defer churnWG.Done()
			crng := rand.New(rand.NewSource(cfg.Seed + 1 + int64(c)))
			var mine []int
			for j := c; j < keys; j += cfg.Churners {
				mine = append(mine, j)
			}
			if len(mine) == 0 {
				return // fewer keys than churners
			}
			ver := make(map[int]uint64, len(mine))
			for op := 0; op < cfg.ChurnOps; op++ {
				j := mine[crng.Intn(len(mine))]
				if crng.Intn(3) == 0 {
					eng.table.Remove(churnKey(j))
					continue
				}
				ver[j] = ver[j]%churnVersionMax + 1
				eng.table.Install(churnKey(j), churnRule(churnKey(j), ver[j]))
			}
		}(c)
	}

	// Single feeder (the SPSC producer); spin-yield on full rings.
	for _, frame := range feed {
		for !eng.FeedRaw(frame) {
			runtime.Gosched()
		}
	}
	churnWG.Wait()
	eng.Stop()

	for i := range feed {
		if churned[i] {
			rewritten, err := checkChurnFrame(want[i], feed[i], !cfg.Engine.DisableOptionTranslation)
			if err != nil {
				return fmt.Errorf("churn frame %d: %w", i, err)
			}
			if rewritten {
				wantRewritten++
			}
			continue
		}
		if !bytes.Equal(feed[i], want[i]) {
			return fmt.Errorf("frame %d diverged from struct pipeline:\n  raw    %x\n  struct %x",
				i, feed[i], want[i])
		}
	}
	st := eng.Stats()
	if st.Rewritten != wantRewritten || st.Rejected != wantRejected {
		return fmt.Errorf("verdict counts: rewritten %d (want %d), rejected %d (want %d)",
			st.Rewritten, wantRewritten, st.Rejected, wantRejected)
	}
	if got, wantN := st.Processed, uint64(len(feed)); got != wantN {
		return fmt.Errorf("processed %d frames, fed %d", got, wantN)
	}
	return nil
}

// churnFrame builds the frame fed to churn key j: TCP with timestamps,
// so an ingress churnRule moves the seq, the TS value and the tuple.
func churnFrame(j int) []byte {
	p := packet.NewTCP(churnKey(j), packet.FlagACK, uint32(100000+j), uint32(200000+j), []byte{byte(j)})
	p.Window = 512
	p.Opts.TS = &packet.Timestamp{Val: 90000, Ecr: 91000}
	return p.Serialize()
}

// checkChurnFrame accepts got, the engine's output for the churn frame
// fed, if it is fed untouched (Pass) or byte-identical to Parse →
// churnRule(key, v).ApplyIngress → Serialize for the one version v the
// seq delta names, checksums included. Any mix of two versions — a torn
// entry — produces bytes no single version does. It reports whether the
// frame was rewritten.
func checkChurnFrame(fed, got []byte, translateOptions bool) (bool, error) {
	if bytes.Equal(got, fed) {
		return false, nil
	}
	p, err := packet.Parse(fed)
	if err != nil {
		return false, fmt.Errorf("fed frame does not parse: %w", err)
	}
	gv, err := packet.ParseView(got)
	if err != nil {
		return false, fmt.Errorf("rewritten frame does not parse: %w (%x)", err, got)
	}
	dSeq := int64(packet.SeqDiff(p.Seq, gv.Seq()))
	if dSeq < 1 || dSeq > churnVersionMax {
		return false, fmt.Errorf("rewrite with impossible seq delta %d: %x", dSeq, got)
	}
	churnRule(p.Tuple, uint64(dSeq)).ApplyIngress(p, translateOptions)
	if want := p.Serialize(); !bytes.Equal(got, want) {
		return false, fmt.Errorf("torn entry: seq delta names version %d but the frame is not its rewrite:\n  got  %x\n  want %x",
			dSeq, got, want)
	}
	return true, nil
}
