package exp

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
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/stats"
)

// DataplaneRow is one cell of the workers×shards throughput sweep.
type DataplaneRow struct {
	// Path names what each op costs: "wire-raw" is the zero-copy fast
	// path (ProcessRawInline rewriting the frame bytes in place) and
	// "wire-struct" the frame round-trip baseline (Parse → Table.Lookup
	// → Entry.Apply* → AppendTo).
	Path    string `json:"path"`
	Workers int    `json:"workers"`
	Shards  int    `json:"shards"`
	// Oversubscribed marks cells driving more workers than GOMAXPROCS:
	// their goroutines time-slice instead of running in parallel, so
	// they are recorded for completeness but excluded from every
	// scaling gate.
	Oversubscribed bool    `json:"oversubscribed,omitempty"`
	Packets        uint64  `json:"packets"`
	ElapsedNs      int64   `json:"elapsed_ns"`
	NsPerOp        float64 `json:"ns_per_op"`
	PktsPerSec     float64 `json:"pkts_per_sec"`
	LookupP50Ns    float64 `json:"lookup_p50_ns,omitempty"`
	LookupP99Ns    float64 `json:"lookup_p99_ns,omitempty"`
}

// DataplaneReport is the BENCH_dataplane.json schema: the sweep rows plus
// the hardware context needed to read them (a 1-CPU runner cannot show
// parallel speedup no matter how good the engine is) and the metrics
// registry holding the lookup-latency and shard-occupancy histograms.
type DataplaneReport struct {
	GOMAXPROCS   int            `json:"gomaxprocs"`
	NumCPU       int            `json:"numcpu"`
	Entries      int            `json:"entries"`
	OpsPerWorker int            `json:"ops_per_worker"`
	Rows         []DataplaneRow `json:"rows"`
	Metrics      *obs.Metrics   `json:"metrics"`
}

// loadTuple is installed flow i's five-tuple in the load benchmark.
func loadTuple(i int) packet.FiveTuple {
	return packet.FiveTuple{
		Proto:   packet.ProtoTCP,
		SrcIP:   packet.MakeAddr(10, 2, byte(i>>8), byte(i)),
		DstIP:   packet.MakeAddr(10, 3, byte(i>>8), byte(i)),
		SrcPort: packet.Port(40000 + i%20000),
		DstPort: 80,
	}
}

// loadEntry alternates directions so the sweep exercises both sides of
// the rewrite kernel, options included.
func loadEntry(i int) *dataplane.Entry {
	d := int64(i%9000) + 1
	to := loadTuple(i).Reverse()
	if i%2 == 0 {
		return &dataplane.Entry{Dir: dataplane.Egress, Rule: core.Rule{
			To: to, AckAdd: -d, TSEcrAdd: -3 * d,
		}}
	}
	return &dataplane.Entry{Dir: dataplane.Ingress, Rule: core.Rule{To: to, SeqAdd: d, TSAdd: 3 * d}}
}

// LoadBench sweeps the concurrent engine's raw path (ProcessRawInline)
// over workers×shards, measuring aggregate rewrite throughput (every
// driver goroutine acts as one run-to-completion worker, the access
// pattern the per-core loops have without a feeder in the way) and
// single-threaded lookup latency quantiles per shard count, then
// compares the raw path against the struct round trip at matching
// workers. Unlike every other experiment in this package it runs in
// wall-clock time, which is why it is not in All(): its numbers mean
// nothing at virtual-time determinism and everything on real cores.
//
// The scaling check (>2× throughput from 1 worker to the widest
// non-oversubscribed sweep point at fixed shards) and the raw-vs-struct
// gate are only enforced when GOMAXPROCS grants at least 4 cores; on
// smaller machines they are recorded as skipped, and CI — which pins 4
// vCPUs — enforces them. Cells with more workers than GOMAXPROCS are
// still measured but marked oversubscribed and excluded from every gate.
func LoadBench(sc Scale, seed int64) (*Result, *DataplaneReport) {
	r := &Result{Name: "loadbench", Title: "Concurrent data plane: rewrite throughput and lookup latency"}
	rep := &DataplaneReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Entries:    4096,
		Metrics:    obs.NewMetrics(),
	}

	maxWorkers := 4
	if g := rep.GOMAXPROCS; g > maxWorkers {
		maxWorkers = g
	}
	workerSweep := []int{1, 2, 4}
	if maxWorkers > 4 {
		workerSweep = append(workerSweep, maxWorkers)
	}
	shardSweep := []int{1, 16, 64}

	rep.OpsPerWorker = 1 << 17
	if sc.Time > 1 {
		rep.OpsPerWorker /= sc.Time
	}
	r.addNote("scale=%s: %d ops/worker, %d entries, GOMAXPROCS=%d NumCPU=%d",
		sc.Label, rep.OpsPerWorker, rep.Entries, rep.GOMAXPROCS, rep.NumCPU)

	lookupHist := rep.Metrics.Histogram(obs.MDataplaneLookup, obs.DataplaneLookupBounds()...)
	// raw-path rows keyed by (workers, shards) for the scaling checks
	// and the wire comparison.
	cells := map[[2]int]DataplaneRow{}

	for _, shards := range shardSweep {
		// One table per shard count: the inline path never touches the
		// engine's rings, so every worker count drives the same table.
		eng := newWireEngine(shards, rep.Entries)
		for _, workers := range workerSweep {
			row := runWireCell(eng, rep, "wire-raw", workers, shards, seed)
			row.LookupP50Ns, row.LookupP99Ns = probeLookupLatency(eng, rep.Entries, lookupHist)
			rep.Rows = append(rep.Rows, row)
			cells[[2]int{workers, shards}] = row
			over := ""
			if row.Oversubscribed {
				over = "  (oversubscribed)"
			}
			r.addRow("workers=%-3d shards=%-3d  %12.0f pkts/s  %7.1f ns/op  lookup p50=%6.0fns p99=%6.0fns%s",
				row.Workers, row.Shards, row.PktsPerSec, row.NsPerOp, row.LookupP50Ns, row.LookupP99Ns, over)
		}
		eng.Table().FillMetrics(rep.Metrics)
		var series []float64
		for _, w := range workerSweep {
			series = append(series, cells[[2]int{w, shards}].PktsPerSec)
		}
		r.addSeries(fmt.Sprintf("pkts_per_sec_shards_%d", shards), series)
	}

	// The speedup gate compares 1 worker against the widest cell that
	// still has a core per worker: oversubscribed cells measure the
	// scheduler, not the engine, so they never anchor the gate, and the
	// gate itself is keyed on GOMAXPROCS (the parallelism actually
	// granted), not NumCPU (what the machine happens to have).
	wide := 1
	for _, w := range workerSweep {
		if w <= rep.GOMAXPROCS && w > wide {
			wide = w
		}
	}
	for _, shards := range shardSweep {
		speedup := cells[[2]int{wide, shards}].PktsPerSec / cells[[2]int{1, shards}].PktsPerSec
		got := fmt.Sprintf("shards=%d: %.2fx from 1 to %d workers", shards, speedup, wide)
		if rep.GOMAXPROCS >= 4 && wide >= 4 {
			r.check(fmt.Sprintf("parallel speedup >2x at %d shards", shards), speedup > 2, "%s", got)
		} else {
			r.addNote("speedup check skipped: GOMAXPROCS=%d on this host (CI enforces at 4 vCPUs); measured %s",
				rep.GOMAXPROCS, got)
		}
	}

	runWireSweep(r, rep, workerSweep, cells, seed)
	r.check("lookup latency histogram filled", lookupHist.N > 0, "n=%d", lookupHist.N)
	r.check("every benchmark packet hit an installed entry",
		rep.Metrics.Counter(obs.MDataplaneMisses) == 0,
		"hits=%d misses=%d", rep.Metrics.Counter(obs.MDataplaneHits), rep.Metrics.Counter(obs.MDataplaneMisses))
	return r, rep
}

// loadMirrorEntry is the inverse rewrite of loadEntry(i), installed at
// the reversed tuple. A raw frame the engine rewrites in place flips
// between loadTuple(i) and its reverse on successive ops; the mirror
// keeps the second op a hit that undoes the first, so the wire cells run
// at a 100% hit rate on frames whose bytes oscillate between exactly two
// states instead of drifting.
func loadMirrorEntry(i int) *dataplane.Entry {
	d := int64(i%9000) + 1
	to := loadTuple(i)
	if i%2 == 0 {
		return &dataplane.Entry{Dir: dataplane.Egress, Rule: core.Rule{
			To: to, AckAdd: d, TSEcrAdd: 3 * d,
		}}
	}
	return &dataplane.Entry{Dir: dataplane.Ingress, Rule: core.Rule{To: to, SeqAdd: -d, TSAdd: -3 * d}}
}

// newWireEngine builds an engine loaded with the benchmark entries plus
// their mirrors (both directions of every flow).
func newWireEngine(shards, entries int) *dataplane.Engine {
	eng := dataplane.New(dataplane.Config{Workers: 1, Shards: shards})
	for i := 0; i < entries; i++ {
		eng.Table().Install(loadTuple(i), loadEntry(i))
		eng.Table().Install(loadTuple(i).Reverse(), loadMirrorEntry(i))
	}
	return eng
}

// buildWireFrames serializes one driver's private working set of frames
// (TCP with timestamps, so both sides of the kernel rewrite options).
func buildWireFrames(rng *rand.Rand, entries, working int) [][]byte {
	frames := make([][]byte, working)
	for i := range frames {
		ft := loadTuple(rng.Intn(entries))
		p := packet.NewTCP(ft, packet.FlagACK, uint32(1000*i), uint32(2000*i), nil)
		p.Window = 4096
		p.Opts.TS = &packet.Timestamp{Val: 70000, Ecr: 80000}
		frames[i] = p.Serialize()
	}
	return frames
}

// runWireSweep compares the end-to-end cost of moving serialized frames
// through the engine on both wire paths at matching workers×shards: the
// struct round trip (Parse → Table.Lookup → Entry.Apply* → AppendTo
// into a per-driver scratch buffer, checksums recomputed from scratch)
// against the sweep's zero-copy raw cells (ProcessRawInline rewriting
// the frame in place with incremental checksums). Like the
// parallel-speedup gate, the ≥2× gate self-reports without failing on
// hosts granted fewer than 4 CPUs.
func runWireSweep(r *Result, rep *DataplaneReport, workerSweep []int, raw map[[2]int]DataplaneRow, seed int64) {
	const shards = 64
	eng := newWireEngine(shards, rep.Entries)
	var structPPS, rawPPS []float64

	for _, workers := range workerSweep {
		srow := runWireCell(eng, rep, "wire-struct", workers, shards, seed)
		rrow := raw[[2]int{workers, shards}]
		rep.Rows = append(rep.Rows, srow)
		structPPS = append(structPPS, srow.PktsPerSec)
		rawPPS = append(rawPPS, rrow.PktsPerSec)
		ratio := rrow.PktsPerSec / srow.PktsPerSec
		over := ""
		if srow.Oversubscribed {
			over = "  (oversubscribed)"
		}
		r.addRow("wire    workers=%-3d shards=%-3d  struct %11.0f pkts/s (%6.1f ns/op)  raw %11.0f pkts/s (%6.1f ns/op)  %.2fx%s",
			workers, shards, srow.PktsPerSec, srow.NsPerOp, rrow.PktsPerSec, rrow.NsPerOp, ratio, over)

		check := fmt.Sprintf("raw path >=2x struct path at %d workers", workers)
		got := fmt.Sprintf("%.2fx (struct %.1f ns/op, raw %.1f ns/op)", ratio, srow.NsPerOp, rrow.NsPerOp)
		if rep.GOMAXPROCS >= 4 && !srow.Oversubscribed {
			r.check(check, ratio >= 2, "%s", got)
		} else {
			r.addNote("%s skipped: GOMAXPROCS=%d (CI enforces at 4 vCPUs); measured %s",
				check, rep.GOMAXPROCS, got)
		}
	}
	r.addSeries("wire_struct_pkts_per_sec", structPPS)
	r.addSeries("wire_raw_pkts_per_sec", rawPPS)
}

// runWireCell measures one wire-path cell on eng: `workers` driver
// goroutines, each over a private working set of frames. The raw path
// rewrites them in place (mirror entries keep every op a hit); the
// struct path leaves them untouched and serializes into a reused scratch
// buffer. Wall time over total ops is the cell's throughput.
func runWireCell(eng *dataplane.Engine, rep *DataplaneReport, path string, workers, shards int, seed int64) DataplaneRow {
	const working = 256
	drivers := make([][][]byte, workers)
	for d := range drivers {
		drivers[d] = buildWireFrames(rand.New(rand.NewSource(seed+int64(d))), rep.Entries, working)
	}

	var wg sync.WaitGroup
	var misses atomic.Uint64
	start := time.Now()
	for _, frames := range drivers {
		wg.Add(1)
		go func(frames [][]byte) {
			defer wg.Done()
			bad := uint64(0)
			if path == "wire-raw" {
				for op := 0; op < rep.OpsPerWorker; op++ {
					if eng.ProcessRawInline(frames[op%working]) != dataplane.Rewritten {
						bad++
					}
				}
			} else {
				tb := eng.Table()
				scratch := make([]byte, 0, 128)
				for op := 0; op < rep.OpsPerWorker; op++ {
					p, err := packet.Parse(frames[op%working])
					if err != nil {
						bad++
						continue
					}
					ent := tb.Lookup(p.Tuple)
					if ent == nil {
						bad++
						continue
					}
					if ent.Dir == dataplane.Egress {
						ent.ApplyEgress(p, true)
					} else {
						ent.ApplyIngress(p, true)
					}
					scratch = p.AppendTo(scratch[:0])
				}
			}
			misses.Add(bad)
		}(frames)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Every raw-rewritten frame must still be a canonical serialization:
	// parse it back and demand byte identity with a from-scratch
	// re-serialize, which re-derives both checksums.
	stale := 0
	for _, frames := range drivers {
		for _, f := range frames {
			p, err := packet.Parse(f)
			if err != nil || !bytes.Equal(p.Serialize(), f) {
				stale++
			}
		}
	}
	if misses.Load() > 0 || stale > 0 {
		panic(fmt.Sprintf("loadbench %s: %d missed ops, %d non-canonical frames", path, misses.Load(), stale))
	}

	total := uint64(workers) * uint64(rep.OpsPerWorker)
	return DataplaneRow{
		Path:           path,
		Workers:        workers,
		Shards:         shards,
		Oversubscribed: workers > rep.GOMAXPROCS,
		Packets:        total,
		ElapsedNs:      elapsed.Nanoseconds(),
		NsPerOp:        float64(elapsed.Nanoseconds()) / float64(total),
		PktsPerSec:     float64(total) / elapsed.Seconds(),
	}
}

// probeLookupLatency times individual single-threaded lookups against a
// loaded table, feeding both the per-cell histogram (for the row's
// quantiles) and the report-wide one. Per-call time.Now bracketing has
// ~tens-of-ns overhead, so the quantiles are upper bounds; they are
// measured identically across shard counts, which is the comparison that
// matters.
func probeLookupLatency(eng *dataplane.Engine, entries int, hist *stats.Histogram) (p50, p99 float64) {
	local := stats.NewHistogram(obs.DataplaneLookupBounds()...)
	const probes = 4096
	for i := 0; i < probes; i++ {
		ft := loadTuple(i % entries)
		t0 := time.Now()
		eng.Table().Lookup(ft)
		ns := float64(time.Since(t0).Nanoseconds())
		local.Observe(ns)
		hist.Observe(ns)
	}
	return local.Quantile(0.50), local.Quantile(0.99)
}
