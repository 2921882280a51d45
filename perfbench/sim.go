package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"repro/internal/lab"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// simWorld is one built simulator testbed, ready for its timed phase.
type simWorld interface {
	// lab returns the testbed.
	lab() *lab.Env
	// horizon is the virtual time the timed phase simulates.
	horizon() sim.Time
	// counters snapshots the per-layer counters the world exports.
	counters() map[string]uint64
	// finish checks the outputs after the timed phase and returns the
	// virtual-time outcome.
	finish(b *bench) simOutcome
}

// simOutcome is the virtual-time result of one repetition. Every field
// repeats exactly for a given seed.
type simOutcome struct {
	virt      map[string]float64 // virtual-time figures of the workload
	units     map[string]string
	digest    uint64
	attempted int64
	failed    int64
	notes     []string
}

// simRep is one repetition's host-time measurement.
type simRep struct {
	setup, wall time.Duration
	peakLive    uint64
	events      uint64
	queueMax    int
	rt0, rt1    rtSample
	counters    map[string]uint64 // deltas over the timed phase
	out         simOutcome
}

// simSlice is the virtual time simulated between two samples of the
// engine's pending-event count. wall_s sums the host time of the slices.
const simSlice = 10 * time.Millisecond

// simHeapEvery is the virtual time between two live-heap samples. Each
// is a forced collection between slices, outside wall_s, so peak_heap_mb
// reads what the simulation holds at fixed virtual instants rather than
// whatever the concurrent collector last finished with, which moved with
// the host's speed.
const simHeapEvery = 100 * time.Millisecond

// runSimReps builds and runs the world repeatedly until the run's time is
// used (at least three repetitions; traced runs use two untraced and at
// least two traced), checks that every repetition reaches the same
// virtual-time outcome, and reports the metrics.
func runSimReps(b *bench, build func(seed int64, tr *tracer) simWorld) error {
	rt := newRTReader()
	var plain, traced []simRep
	var tr *tracer
	var profiles []string
	deadline := time.Now().Add(b.seconds)
	for rep := 0; ; rep++ {
		doTrace := b.trace && rep >= 2
		if doTrace && tr == nil {
			tr = newTracer()
		}
		var rtr *tracer
		if doTrace {
			rtr = tr
		}
		r, prof, err := simRepOnce(b, rt, build, rtr, rep)
		if err != nil {
			return err
		}
		if prof != "" {
			profiles = append(profiles, prof)
		}
		if doTrace {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		n := len(plain) + len(traced)
		enough := n >= 3 && (!b.trace || len(traced) >= 2)
		if enough && time.Now().After(deadline) {
			break
		}
	}

	all := append(append([]simRep(nil), plain...), traced...)
	first := all[0].out
	for i, r := range all[1:] {
		b.check(r.out.digest == first.digest, "repetition %d digest %016x differs from %016x with the same seed", i+1, r.out.digest, first.digest)
		for k, v := range first.virt {
			b.check(r.out.virt[k] == v, "repetition %d %s = %v differs from %v with the same seed", i+1, k, r.out.virt[k], v)
		}
	}
	for _, r := range all {
		b.attempted += r.out.attempted
		b.failed += r.out.failed
	}
	b.note("digest %016x over %d repetitions (%d traced)", first.digest, len(all), len(traced))
	for _, n := range first.notes {
		b.note("%s", n)
	}

	if !b.trace {
		b.e2e("setup_s", "s", medianOf(plain, func(r simRep) float64 { return r.setup.Seconds() }))
		b.e2e("wall_s", "s", medianOf(plain, func(r simRep) float64 { return r.wall.Seconds() }))
		b.e2e("peak_heap_mb", "MB", medianOf(plain, func(r simRep) float64 { return mb(r.peakLive) }))
		keys := make([]string, 0, len(first.virt))
		for k := range first.virt {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b.info(k, first.units[k]+" virtual", first.virt[k])
		}
		return nil
	}

	t := traced[len(traced)-1]
	b.layer("sim.events", "count", float64(t.events))
	b.layer("sim.ns_per_event", "ns", medianOf(traced, func(r simRep) float64 {
		return float64(r.wall.Nanoseconds()) / float64(r.events)
	}))
	b.layer("sim.queue_max", "count", float64(t.queueMax))
	b.layer("runtime.alloc_bytes_per_event", "B", float64(t.rt1.allocBytes-t.rt0.allocBytes)/float64(t.events))
	b.layer("runtime.allocs_per_event", "count", float64(t.rt1.allocObjs-t.rt0.allocObjs)/float64(t.events))
	b.layer("runtime.gc_cpu_share", "share", medianOf(traced, func(r simRep) float64 { return gcShare(r.rt0, r.rt1) }))
	names := make([]string, 0, len(t.counters))
	for k := range t.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		b.layer(k, "count", float64(t.counters[k]))
	}
	wallPlain := medianOf(plain, func(r simRep) float64 { return r.wall.Seconds() })
	wallTraced := medianOf(traced, func(r simRep) float64 { return r.wall.Seconds() })
	b.layer("trace.overhead_share", "share", wallTraced/wallPlain-1)
	self := tr.selfTime()
	for _, name := range []string{"setup", "app.NewLoadGen", "tcp.Stack.Connect", "mbox.ProxyPair.Splice", "lab.Env.RunFor"} {
		if s, ok := self[name]; ok {
			b.layer("span."+name+"_s", "s", s/float64(len(traced)))
		}
	}
	shares, err := foldProfiles(profiles)
	if err != nil {
		return err
	}
	b.reportShares(shares)
	b.layer("harness.now_pair_ns", "ns", nowPairNs())
	return tr.write(traceDir, fmt.Sprintf("%s-seed%d.spans.jsonl", b.workload, b.seed))
}

// simRepOnce builds one world and runs its timed phase. When tr is
// non-nil the timed phase is CPU-profiled and its path returned.
func simRepOnce(b *bench, rt *rtReader, build func(int64, *tracer) simWorld, tr *tracer, rep int) (simRep, string, error) {
	var r simRep
	runtime.GC()
	t0 := time.Now()
	sid := tr.begin("setup")
	w := build(b.seed, tr)
	tr.end(sid)
	r.setup = time.Since(t0)

	env := w.lab()
	eng := env.Eng
	c0 := w.counters()
	ev0 := eng.Processed
	var prof *profile
	if tr != nil {
		var err error
		prof, err = startProfile(traceDir, fmt.Sprintf("%s-seed%d-rep%d.cpu.pb.gz", b.workload, b.seed, rep))
		if err != nil {
			return r, "", err
		}
	}
	r.rt0 = rt.read()
	end := eng.Now() + w.horizon()
	nextHeap := eng.Now() + simHeapEvery
	for eng.Now() < end {
		step := min(simSlice, end-eng.Now())
		id := tr.begin("lab.Env.RunFor")
		before := eng.Processed
		start := time.Now()
		env.RunFor(step)
		r.wall += time.Since(start)
		p := eng.Pending()
		r.queueMax = max(r.queueMax, p)
		tr.end(id, "events", eng.Processed-before, "pending", p)
		if eng.Now() >= nextHeap || eng.Now() >= end {
			runtime.GC()
			r.peakLive = max(r.peakLive, rt.read().live)
			nextHeap += simHeapEvery
		}
	}
	r.rt1 = rt.read()
	path := ""
	if prof != nil {
		if err := prof.stop(); err != nil {
			return r, "", err
		}
		path = prof.path
	}
	r.events = eng.Processed - ev0
	c1 := w.counters()
	r.counters = map[string]uint64{}
	for k, v := range c1 {
		r.counters[k] = v - c0[k]
	}
	r.out = w.finish(b)
	return r, path, nil
}

// medianOf is the median of f over reps.
func medianOf(reps []simRep, f func(simRep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// netCounters sums the netsim layer's packet and drop counters over every
// host and link direction.
func netCounters(n *netsim.Network, into map[string]uint64) {
	var pkts, drops uint64
	for _, h := range n.Hosts() {
		pkts += h.Stats.PacketsOut
		drops += h.Stats.DropsNoRoute + h.Stats.DropsHook + h.Stats.DropsNoHandler +
			h.Stats.DropsHostDown + h.Stats.DropsCorrupt
		for _, l := range h.Links() {
			drops += l.Drops()
		}
	}
	into["netsim.packets"] = pkts
	into["netsim.drops"] = drops
}

// agentCounters sums the core layer's agent counters over the nodes.
func agentCounters(nodes []*lab.Node, into map[string]uint64) {
	for _, n := range nodes {
		if n.Agent == nil {
			continue
		}
		s := n.Agent.Stats
		into["core.rewrites"] += s.PacketsRewritten
		into["core.ctrl_retransmits"] += s.CtrlRetransmits
		into["core.locks_nacked"] += s.LocksNacked
		into["core.reconfigs_failed"] += s.ReconfigsFailed
	}
}

// digestOf hashes a rendering of values with FNV-1a.
func digestOf(values ...any) uint64 {
	h := fnv.New64a()
	for _, v := range values {
		fmt.Fprintf(h, "%+v\n", v)
	}
	return h.Sum64()
}
