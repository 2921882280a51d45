package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/packet"
)

// dp-churn sizing. The table holds two entries per stable flow (the
// flow's tuple and its rewritten tuple), so a frame processed twice is
// back to its original bytes and the forwarder can cycle over one frame
// set forever without copying.
const (
	dpFlows      = 16384 // stable flows with entries
	dpMissFlows  = 2048  // flows with no entry
	dpFrames     = 65536 // frames in the cycled set
	dpShards     = 256
	dpMissShare  = 0.10 // frames to flows with no entry
	dpBadShare   = 0.01 // malformed frames
	dpSACKShare  = 0.10 // valid frames carrying SACK blocks
	dpMSSShare   = 0.10 // valid frames carrying a full-MSS payload
	dpChurnKeys  = 1024 // keys the update generator installs and removes
	dpUpdateRate = 1000 // updates per second, open loop
	dpSetups     = 9    // table builds whose median is setup_s
	dpWindow     = time.Second

	// dpBuildAllowance is the time a build and its two collections take,
	// deducted from each forwarding segment to keep the run near its length.
	dpBuildAllowance = 250 * time.Millisecond
	// dpTraceTail is the time a traced run keeps for its stage batches and
	// ring rounds after the two forwarding phases.
	dpTraceTail = 3 * time.Second
)

// dpSet is the generated input: the frame set in processing order, the
// expected verdict and bytes of every frame in both of its states, and
// the rules to install.
type dpSet struct {
	frames [][]byte // live buffers, rewritten in place
	orig   [][]byte // state 0: as generated
	image  [][]byte // state 1: after one rewrite (== orig for Pass and Rejected)
	want   []dataplane.Verdict
	tuple0 []packet.FiveTuple // valid frames' tuples in state 0
	tuple1 []packet.FiveTuple // ... and in state 1

	keys    []packet.FiveTuple // every installed key: flows and their rewritten tuples
	rules   []core.Rule        // rule per key
	dirs    []dataplane.Dir
	churn   []packet.FiveTuple
	rewrite int // frames per pass with verdict Rewritten
	pass    int // ... Pass
	reject  int // ... Rejected
}

// dpFlowTuple and dpAltTuple give flow i's tuple and the tuple its rule
// rewrites it to; dpMissTuple and dpChurnTuple address disjoint ranges.
func dpFlowTuple(i int) packet.FiveTuple {
	return packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: packet.MakeAddr(10, 1, byte(i>>8), byte(i)),
		DstIP: packet.MakeAddr(10, 9, 0, byte(i%7+1)), SrcPort: packet.Port(20000 + i%30000), DstPort: 80}
}

func dpAltTuple(i int) packet.FiveTuple {
	return packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: packet.MakeAddr(10, 2, byte(i>>8), byte(i)),
		DstIP: packet.MakeAddr(10, 8, 0, byte(i%5+1)), SrcPort: packet.Port(40000 + i%20000), DstPort: 8080}
}

func dpMissTuple(i int) packet.FiveTuple {
	return packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: packet.MakeAddr(10, 3, byte(i>>8), byte(i)),
		DstIP: packet.MakeAddr(10, 9, 0, 1), SrcPort: packet.Port(20000 + i), DstPort: 80}
}

func dpChurnTuple(i int) packet.FiveTuple {
	return packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: packet.MakeAddr(10, 4, byte(i>>8), byte(i)),
		DstIP: packet.MakeAddr(10, 9, 1, 1), SrcPort: packet.Port(30000 + i), DstPort: 443}
}

// genDP builds the input for seed.
func genDP(seed int64) (*dpSet, error) {
	rng := rand.New(rand.NewSource(seed))
	d := &dpSet{}
	// Rules: flow i's tuple rewrites to its alternate with seeded deltas,
	// the alternate rewrites back with the negated deltas.
	for i := 0; i < dpFlows; i++ {
		dir := dataplane.Egress
		if i%2 == 1 {
			dir = dataplane.Ingress
		}
		fwd := core.Rule{To: dpAltTuple(i)}
		a, b := int64(rng.Int31n(1<<20)+1), int64(rng.Int31n(1<<20)+1)
		if dir == dataplane.Egress {
			fwd.AckAdd, fwd.TSEcrAdd = a, b
		} else {
			fwd.SeqAdd, fwd.TSAdd = a, b
		}
		back := core.Rule{To: dpFlowTuple(i), SeqAdd: -fwd.SeqAdd, TSAdd: -fwd.TSAdd, AckAdd: -fwd.AckAdd, TSEcrAdd: -fwd.TSEcrAdd}
		d.keys = append(d.keys, dpFlowTuple(i), dpAltTuple(i))
		d.rules = append(d.rules, fwd, back)
		d.dirs = append(d.dirs, dir, dir)
	}
	for i := 0; i < dpChurnKeys; i++ {
		d.churn = append(d.churn, dpChurnTuple(i))
	}

	payload := make([]byte, 1460)
	for k := 0; k < dpFrames; k++ {
		r := rng.Float64()
		var ft packet.FiveTuple
		flow := -1
		switch {
		case r < dpMissShare:
			ft = dpMissTuple(rng.Intn(dpMissFlows))
		default:
			flow = rng.Intn(dpFlows)
			ft = dpFlowTuple(flow)
		}
		p := packet.NewTCP(ft, packet.FlagACK, rng.Uint32(), rng.Uint32(), nil)
		p.Window = uint16(rng.Intn(60000) + 1000)
		p.Opts.TS = &packet.Timestamp{Val: rng.Uint32(), Ecr: rng.Uint32()}
		if rng.Float64() < dpSACKShare {
			for s, n := 0, 1+rng.Intn(3); s < n; s++ {
				base := rng.Uint32()
				p.Opts.SACK = append(p.Opts.SACK, packet.SACKBlock{Start: base, End: base + 1460})
			}
		}
		if rng.Float64() < dpMSSShare {
			p.Payload = payload[:1460]
		}
		frame := p.Serialize()
		if r >= dpMissShare && r < dpMissShare+dpBadShare {
			frame = corrupt(rng, frame)
			if _, err := packet.ParseView(frame); err == nil {
				return nil, fmt.Errorf("frame %d: corruption left a valid frame", k)
			}
			d.add(frame, frame, dataplane.Rejected, packet.FiveTuple{}, packet.FiveTuple{})
			continue
		}
		if flow < 0 {
			d.add(frame, frame, dataplane.Pass, ft, ft)
			continue
		}
		// The expected rewrite comes from the struct path: parse, apply
		// the shared core.Rule kernel, serialize.
		q, err := packet.Parse(frame)
		if err != nil {
			return nil, fmt.Errorf("frame %d does not parse: %w", k, err)
		}
		rule := d.rules[2*flow]
		if d.dirs[2*flow] == dataplane.Egress {
			rule.ApplyEgress(q, true)
		} else {
			rule.ApplyIngress(q, true)
		}
		d.add(frame, q.Serialize(), dataplane.Rewritten, ft, dpAltTuple(flow))
	}
	return d, nil
}

// corrupt mangles a canonical frame so that ParseView must reject it.
func corrupt(rng *rand.Rand, frame []byte) []byte {
	b := append([]byte(nil), frame...)
	switch rng.Intn(4) {
	case 0: // truncated
		b = b[:packet.IPHeaderLen+rng.Intn(len(b)-packet.IPHeaderLen)]
	case 1: // IP version/IHL
		b[0] = 0x46
	case 2: // total length disagrees with the buffer
		b[packet.OffIPTotalLen]++
	case 3: // TCP data offset below the fixed header
		b[packet.IPHeaderLen+packet.OffTCPDataOff] = 0x40
	}
	return b
}

// add appends one frame with its two states, copying the live buffer
// into a slice whose capacity equals its length.
func (d *dpSet) add(frame, image []byte, v dataplane.Verdict, t0, t1 packet.FiveTuple) {
	live := append(make([]byte, 0, len(frame)), frame...)
	d.frames = append(d.frames, live[:len(live):len(live)])
	d.orig = append(d.orig, frame)
	d.image = append(d.image, image)
	d.want = append(d.want, v)
	d.tuple0 = append(d.tuple0, t0)
	d.tuple1 = append(d.tuple1, t1)
	switch v {
	case dataplane.Rewritten:
		d.rewrite++
	case dataplane.Pass:
		d.pass++
	case dataplane.Rejected:
		d.reject++
	}
}

// build creates an engine and installs every rule.
func (d *dpSet) build() *dataplane.Engine {
	eng := dataplane.New(dataplane.Config{Workers: 1, Shards: dpShards})
	t := eng.Table()
	for i, k := range d.keys {
		t.Install(k, &dataplane.Entry{Rule: d.rules[i], Dir: d.dirs[i]})
	}
	return eng
}

// verify checks every frame against its expected state and that every
// valid frame parses back to its own canonical serialization. flips is
// how many times each frame has been processed.
func (d *dpSet) verify(b *bench, flips int) int64 {
	var bad int64
	for i, f := range d.frames {
		want := d.orig[i]
		if flips%2 == 1 {
			want = d.image[i]
		}
		if !bytes.Equal(f, want) {
			bad++
			continue
		}
		if d.want[i] == dataplane.Rejected {
			continue
		}
		p, err := packet.Parse(f)
		if err != nil || !bytes.Equal(p.Serialize(), f) {
			bad++
		}
	}
	b.check(bad == 0, "%d frames differ from their expected bytes after %d passes", bad, flips)
	return bad
}

// dpPhase is one forwarding phase: the forwarder cycles the frame set
// while the generator installs and removes churn keys open-loop.
type dpPhase struct {
	windows      []float64 // frames per second per window
	frames       int64
	wrong        int64 // frames with an unexpected verdict
	passes       int
	updLat       []float64   // µs from due time to completion
	updWin       [][]float64 // updLat split by the window the update was due in
	installUs    []float64
	removeUs     []float64
	lateMaxUs    float64
	hits, misses uint64
	rt0, rt1     rtSample
	peakLive     uint64
}

// forward runs one phase for dur.
func (d *dpSet) forward(eng *dataplane.Engine, dur time.Duration, rt *rtReader, churnOn []bool) *dpPhase {
	ph := &dpPhase{}
	t := eng.Table()
	st0 := t.Stats()
	ph.rt0 = rt.read()
	start := time.Now()
	end := start.Add(dur)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		sleep := preciseSleeper()
		period := time.Second / dpUpdateRate
		for i := 0; !stop.Load(); i++ {
			due := start.Add(time.Duration(i) * period)
			if due.After(end) {
				return
			}
			sleep(time.Until(due))
			t0 := time.Now()
			ph.lateMaxUs = max(ph.lateMaxUs, float64(t0.Sub(due).Nanoseconds())/1e3)
			k := i % len(d.churn)
			if churnOn[k] {
				t.Remove(d.churn[k])
			} else {
				t.Install(d.churn[k], &dataplane.Entry{Rule: core.Rule{To: d.keys[k], AckAdd: int64(i)}, Dir: dataplane.Egress})
			}
			done := time.Now()
			us := float64(done.Sub(t0).Nanoseconds()) / 1e3
			if churnOn[k] {
				ph.removeUs = append(ph.removeUs, us)
			} else {
				ph.installUs = append(ph.installUs, us)
			}
			churnOn[k] = !churnOn[k]
			lat := float64(done.Sub(due).Nanoseconds()) / 1e3
			ph.updLat = append(ph.updLat, lat)
			w := int(due.Sub(start) / dpWindow)
			for len(ph.updWin) <= w {
				ph.updWin = append(ph.updWin, nil)
			}
			ph.updWin[w] = append(ph.updWin[w], lat)
		}
	}()

	winStart, winFrames := start, int64(0)
	for {
		for i, f := range d.frames {
			if eng.ProcessRawInline(f) != d.want[i] {
				ph.wrong++
			}
		}
		ph.passes++
		winFrames += int64(len(d.frames))
		now := time.Now()
		if w := now.Sub(winStart); w >= dpWindow {
			ph.windows = append(ph.windows, float64(winFrames)/w.Seconds())
			ph.frames += winFrames
			winStart, winFrames = now, 0
			ph.peakLive = max(ph.peakLive, rt.read().live)
		}
		if now.After(end) {
			break
		}
	}
	ph.frames += winFrames
	stop.Store(true)
	wg.Wait()
	ph.rt1 = rt.read()
	ph.peakLive = max(ph.peakLive, ph.rt1.live)
	st1 := t.Stats()
	ph.hits, ph.misses = st1.Hits-st0.Hits, st1.Misses-st0.Misses
	return ph
}

// mergePhases joins the forwarding segments of an untraced run, in the
// fields the untraced run reports.
func mergePhases(phs []*dpPhase) *dpPhase {
	m := &dpPhase{}
	for _, ph := range phs {
		m.windows = append(m.windows, ph.windows...)
		m.passes += ph.passes
		m.updLat = append(m.updLat, ph.updLat...)
		m.updWin = append(m.updWin, ph.updWin...)
		m.lateMaxUs = max(m.lateMaxUs, ph.lateMaxUs)
		m.peakLive = max(m.peakLive, ph.peakLive)
	}
	return m
}

// windowTail is the median over full windows of each window's tail
// latency (the highest percentile with ten updates beyond it), which
// keeps one stall from deciding the whole run's tail.
func (ph *dpPhase) windowTail() (value, pct float64) {
	full := int(dpWindow / (time.Second / dpUpdateRate))
	var tails []float64
	for _, w := range ph.updWin {
		if len(w) == full {
			v, p := tail(w)
			tails = append(tails, v)
			pct = p
		}
	}
	return median(tails), pct
}

func runDPChurn(b *bench) error {
	began := time.Now()
	d, err := genDP(b.seed)
	if err != nil {
		return err
	}
	b.note("dp-churn: %d frames per pass (%d rewritten, %d pass, %d rejected), %d entries in %d shards, %d updates/s on %d keys",
		len(d.frames), d.rewrite, d.pass, d.reject, len(d.keys), dpShards, dpUpdateRate, dpChurnKeys)

	rt := newRTReader()
	var setups []float64
	churnOn := make([]bool, len(d.churn))
	flips := 0
	// rebuild times one table build into setups. The caller drops its
	// previous engine first so that the collection here can free it.
	rebuild := func() *dataplane.Engine {
		runtime.GC()
		t0 := time.Now()
		eng := d.build()
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC()
		b.check(eng.Table().Len() == len(d.keys), "table holds %d entries, want %d", eng.Table().Len(), len(d.keys))
		clear(churnOn)
		return eng
	}
	var eng *dataplane.Engine

	if !b.trace {
		// Builds alternate with forwarding segments, so both are sampled
		// over the whole run: the host's speed drifts over seconds, and
		// builds made in one burst would all see the same moment of it.
		seg := max((b.seconds-time.Since(began))/dpSetups-dpBuildAllowance, 2*time.Second)
		var phs []*dpPhase
		for i := 0; i < dpSetups; i++ {
			eng = nil
			eng = rebuild()
			ph := d.forward(eng, seg, rt, churnOn)
			flips += ph.passes
			d.account(b, ph, flips)
			phs = append(phs, ph)
		}
		ph := mergePhases(phs)
		rate := median(ph.windows)
		b.e2e("setup_s", "s", median(setups))
		b.e2e("wall_s", "s", float64(len(d.frames))/rate)
		b.e2e("peak_heap_mb", "MB", mb(ph.peakLive))
		b.info("dp_mpps", "Mpps", rate/1e6)
		b.info("update_p50_us", "us", median(ph.updLat))
		tl, pct := ph.windowTail()
		b.info("update_tail_us", "us", tl)
		b.note("dp-churn: %d windows, %d passes, %d updates; generator at most %.0f µs late",
			len(ph.windows), ph.passes, len(ph.updLat), ph.lateMaxUs)
		b.note("dp-churn: wall_s is host seconds per pass over the %d frames; update_tail_us is the median over %v windows of each window's p%g",
			len(d.frames), dpWindow, pct)
		return nil
	}

	// Traced run: the builds, an untraced forwarding phase, the same phase
	// under the CPU profiler, then the stage batches and the ring handoff.
	for i := 0; i < dpSetups; i++ {
		eng = nil
		eng = rebuild()
	}
	half := max((b.seconds-time.Since(began)-dpTraceTail)/2, 2*time.Second)
	plain := d.forward(eng, half, rt, churnOn)
	flips += plain.passes
	d.account(b, plain, flips)
	prof, err := startProfile(traceDir, fmt.Sprintf("%s-seed%d.cpu.pb.gz", b.workload, b.seed))
	if err != nil {
		return err
	}
	traced := d.forward(eng, half, rt, churnOn)
	if err := prof.stop(); err != nil {
		return err
	}
	flips += traced.passes
	d.account(b, traced, flips)

	b.layer("span.setup_s", "s", median(setups))
	b.layer("trace.overhead_share", "share", median(plain.windows)/median(traced.windows)-1)
	b.layer("dataplane.install_us", "us", median(append(plain.installUs, traced.installUs...)))
	b.layer("dataplane.remove_us", "us", median(append(plain.removeUs, traced.removeUs...)))
	b.layer("control.late_max_us", "us", max(plain.lateMaxUs, traced.lateMaxUs))
	b.layer("control.update_p50_us", "us", median(plain.updLat))
	tl, _ := plain.windowTail()
	b.layer("control.update_tail_us", "us", tl)
	b.layer("dataplane.hit_ratio", "share", float64(traced.hits)/float64(traced.hits+traced.misses))
	b.layer("dataplane.rejected_share", "share", float64(d.reject)/float64(len(d.frames)))
	b.layer("runtime.gc_cpu_share", "share", gcShare(traced.rt0, traced.rt1))
	updates := float64(len(traced.updLat))
	b.layer("runtime.alloc_bytes_per_update", "B", float64(traced.rt1.allocBytes-traced.rt0.allocBytes)/updates)

	flips = d.stages(b, eng, flips)
	flips = d.ring(b, eng, flips)
	d.verify(b, flips)
	shares, err := foldProfiles([]string{prof.path})
	if err != nil {
		return err
	}
	b.reportShares(shares)
	return nil
}

// account adds a phase's frames to the run totals and checks verdicts,
// the Pass/Rejected mix and the frame bytes.
func (d *dpSet) account(b *bench, ph *dpPhase, flips int) {
	b.attempted += ph.frames
	b.failed += ph.wrong + d.verify(b, flips)
	b.check(ph.wrong == 0, "%d frames got an unexpected verdict", ph.wrong)
	wantLookups := uint64(ph.passes) * uint64(d.rewrite+d.pass)
	b.check(ph.hits+ph.misses == wantLookups && ph.misses == uint64(ph.passes*d.pass),
		"table counted %d hits and %d misses over %d passes, want %d lookups with %d misses",
		ph.hits, ph.misses, ph.passes, wantLookups, ph.passes*d.pass)
}

// stageReps is how many batches each stage is timed over; the median
// batch is reported.
const stageReps = 15

// stages times each stage of the raw path in batches over the whole
// frame set, never around single calls, and reconciles their sum with
// the end-to-end cost per frame measured the same way. It returns the
// updated flip count (the apply batches rewrite frames).
func (d *dpSet) stages(b *bench, eng *dataplane.Engine, flips int) int {
	t := eng.Table()
	n := float64(len(d.frames))
	var valid []int
	for i, v := range d.want {
		if v != dataplane.Rejected {
			valid = append(valid, i)
		}
	}
	views := make([]packet.View, len(d.frames))
	ents := [2][]*dataplane.Entry{make([]*dataplane.Entry, len(d.frames)), make([]*dataplane.Entry, len(d.frames))}
	for _, i := range valid {
		views[i], _ = packet.ParseView(d.frames[i])
		ents[0][i] = t.Lookup(d.tuple0[i])
		ents[1][i] = t.Lookup(d.tuple1[i])
	}
	tuples := func() []packet.FiveTuple {
		if flips%2 == 0 {
			return d.tuple0
		}
		return d.tuple1
	}

	var parse, hash, lookup, apply, e2e []float64
	var sink int
	for r := 0; r < stageReps; r++ {
		t0 := time.Now()
		for _, f := range d.frames {
			if v, err := packet.ParseView(f); err == nil {
				sink += v.Len()
			}
		}
		parse = append(parse, float64(time.Since(t0).Nanoseconds())/n)

		tu := tuples()
		t0 = time.Now()
		for _, i := range valid {
			sink += packet.Bucket(tu[i].Hash(), dpShards)
		}
		hash = append(hash, float64(time.Since(t0).Nanoseconds())/n)

		t0 = time.Now()
		for _, i := range valid {
			if t.Lookup(tu[i]) != nil {
				sink++
			}
		}
		lookup = append(lookup, float64(time.Since(t0).Nanoseconds())/n)

		side := ents[flips%2]
		t0 = time.Now()
		for _, i := range valid {
			if e := side[i]; e != nil {
				if e.Dir == dataplane.Egress {
					e.Raw().ApplyEgress(&views[i], true)
				} else {
					e.Raw().ApplyIngress(&views[i], true)
				}
			}
		}
		apply = append(apply, float64(time.Since(t0).Nanoseconds())/n)
		flips++

		t0 = time.Now()
		for _, f := range d.frames {
			sink += int(eng.ProcessRawInline(f))
		}
		e2e = append(e2e, float64(time.Since(t0).Nanoseconds())/n)
		flips++
	}
	runtime.KeepAlive(sink)

	// The loadbench probe brackets every lookup with time.Now; measure
	// the bracketed lookup next to the batch-timed figure above, and the
	// bracket's own cost with nowPairNs.
	var bracketed []float64
	tu := tuples()
	for _, i := range valid[:min(len(valid), 20000)] {
		t0 := time.Now()
		e := t.Lookup(tu[i])
		t1 := time.Now()
		if e != nil {
			sink++
		}
		bracketed = append(bracketed, float64(t1.Sub(t0).Nanoseconds()))
	}
	runtime.KeepAlive(sink)

	pm, hm, lm, am, em := median(parse), median(hash), median(lookup), median(apply), median(e2e)
	b.layer("packet.parseview_ns", "ns", pm)
	b.layer("packet.hash_ns", "ns", hm)
	b.layer("dataplane.lookup_ns", "ns", lm)
	b.layer("dataplane.rawrule_ns", "ns", am)
	b.layer("dataplane.frame_ns", "ns", em)
	b.layer("dataplane.unattributed_ns", "ns", em-pm-lm-am)
	b.layer("dataplane.lookup_bracketed_ns", "ns", midMean(bracketed))
	b.layer("harness.now_pair_ns", "ns", nowPairNs())
	b.note("dp-churn stages per frame of the mix (median of %d batches): parse %.1f + lookup %.1f (hash %.1f inside) + rewrite %.1f = %.1f of %.1f ns end to end",
		stageReps, pm, lm, hm, am, pm+lm+am, em)
	return flips
}

// ringRounds is how many Start/Stop rounds the ring phase runs.
const ringRounds = 9

// ring runs one feeder and one worker through Engine.FeedRaw in
// Start/Stop rounds (fed frames belong to the worker until Stop),
// checking each round's verdict counts.
func (d *dpSet) ring(b *bench, eng *dataplane.Engine, flips int) int {
	var mpps, feedNs []float64
	var pushes, full uint64
	prev := eng.Stats()
	for r := 0; r < ringRounds; r++ {
		t0 := time.Now()
		eng.Start()
		for _, f := range d.frames {
			for !eng.FeedRaw(f) {
				full++
				runtime.Gosched()
			}
			pushes++
		}
		fed := time.Since(t0)
		eng.Stop()
		all := time.Since(t0)
		flips++
		st := eng.Stats()
		b.check(st.Processed-prev.Processed == uint64(len(d.frames)) &&
			st.Rewritten-prev.Rewritten == uint64(d.rewrite) &&
			st.Rejected-prev.Rejected == uint64(d.reject),
			"ring round %d: processed %d rewritten %d rejected %d, want %d %d %d", r,
			st.Processed-prev.Processed, st.Rewritten-prev.Rewritten, st.Rejected-prev.Rejected,
			len(d.frames), d.rewrite, d.reject)
		prev = st
		mpps = append(mpps, float64(len(d.frames))/all.Seconds()/1e6)
		feedNs = append(feedNs, float64(fed.Nanoseconds())/float64(len(d.frames)))
	}
	b.layer("dataplane.ring_mpps", "Mpps", median(mpps))
	b.layer("dataplane.feed_ns", "ns", median(feedNs))
	b.layer("dataplane.ring_full_share", "share", float64(full)/float64(full+pushes))
	return flips
}
