// Command perfbench is the repository's end-to-end benchmark. It drives
// both Dysco paths from outside, through their public APIs only:
//
//   - sim-http: the Figure 10 shape on the discrete-event simulator;
//   - sim-splice: the Figure 12/13 shape, proxy splicing under load;
//   - dp-churn: the wall-clock data plane's raw forwarding path with a
//     concurrent open-loop rule-update generator.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sim-http --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
// repeats the same work with spans, counter deltas and a CPU profile and
// prints the per-layer metrics instead. The last line of standard output
// is one JSON object {correct, attempted, failed, metrics}. Any failed
// output check makes the run exit non-zero. README.md in this directory
// maps each per-layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench carries one run's parameters and everything it reports.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool

	attempted, failed int64
	problems          []string

	metrics map[string]metric
	infos   []info
	notes   []string
}

// info is a workload-specific figure printed next to the metrics but kept
// out of the result line, which holds the same metric set for every
// workload: the virtual-time figures of the sim workloads and the
// data plane's rate and update latencies.
type info struct {
	name, unit string
	value      float64
}

// report records a metric of the run's set. End-to-end metrics are kept
// only in untraced runs and per-layer metrics only in traced runs, so each
// run prints exactly one of the two sets.
func (b *bench) report(layer bool, name, unit string, v float64) {
	if layer != b.trace {
		return
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// e2e records an end-to-end metric; layer records a per-layer metric.
func (b *bench) e2e(name, unit string, v float64)   { b.report(false, name, unit, v) }
func (b *bench) layer(name, unit string, v float64) { b.report(true, name, unit, v) }

// info records a workload-specific figure for the human-readable output.
func (b *bench) info(name, unit string, v float64) {
	b.infos = append(b.infos, info{name, unit, v})
}

// note prints an explanatory line next to the metrics.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// check records a failed output check when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	msg := fmt.Sprintf(format, args...)
	for _, p := range b.problems {
		if p == msg {
			return
		}
	}
	b.problems = append(b.problems, msg)
}

// traceDir receives the traced runs' spans and CPU profiles, relative to
// the repository root the benchmark runs from.
const traceDir = ".bench_build/traces"

var workloads = map[string]func(*bench) error{
	"sim-http":   runSimHTTP,
	"sim-splice": runSimSplice,
	"dp-churn":   runDPChurn,
}

func main() {
	b := &bench{metrics: map[string]metric{}}
	var secs float64
	var trace int
	flag.StringVar(&b.workload, "workload", "", "workload: sim-http, sim-splice or dp-churn")
	flag.Int64Var(&b.seed, "seed", 1, "workload seed")
	flag.Float64Var(&secs, "seconds", 30, "measurement duration in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	b.seconds = time.Duration(secs * float64(time.Second))
	b.trace = trace != 0

	run, ok := workloads[b.workload]
	if !ok || secs <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds %v\n", b.workload, secs)
		os.Exit(2)
	}
	if err := checkManifest(manifestPath); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	// Marshal cannot fail on these value types.
	env, _ := json.Marshal(map[string]any{
		"workload": b.workload, "seed": b.seed, "trace": b.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "numcpu": runtime.NumCPU(),
		"go": runtime.Version(), "seconds": secs,
	})
	fmt.Printf("env %s\n", env)

	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	set := endToEnd
	if b.trace {
		set = perLayer
	}
	b.complete(set)
	for _, n := range b.notes {
		fmt.Printf("note: %s\n", n)
	}
	for _, in := range b.infos {
		fmt.Printf("%-34s %14.6g %s (not in the result line)\n", in.name, in.value, in.unit)
	}
	for _, d := range set {
		m := b.metrics[d.name]
		fmt.Printf("%-34s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
	for _, p := range b.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	correct := len(b.problems) == 0 && b.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, b.attempted, b.failed, b.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// ---------- statistics ----------

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// midMean is the mean of the middle half of xs: robust to the outliers
// of a per-call timer, and not stuck on its whole-nanosecond steps.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// tailLadder is the set of percentiles a tail metric may report.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of xs in tailLadder that has at
// least ten samples beyond it, with that percentile.
func tail(xs []float64) (value, pct float64) {
	n := float64(len(xs))
	for _, p := range tailLadder {
		if n*(1-p/100) >= 10 {
			return quantile(xs, p/100), p
		}
	}
	return quantile(xs, 0.5), 50
}

// ---------- runtime counters ----------

// rtSample is one reading of the runtime/metrics counters the benchmark
// reports per layer.
type rtSample struct {
	live       uint64  // heap live after the last GC, bytes
	allocBytes uint64  // cumulative heap allocation, bytes
	allocObjs  uint64  // cumulative heap allocation, objects
	gcCPU      float64 // cumulative GC CPU, seconds
	totalCPU   float64 // cumulative available CPU, seconds
}

var rtNames = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// rtReader reads rtNames into a reusable sample buffer.
type rtReader struct{ s []metrics.Sample }

func newRTReader() *rtReader {
	r := &rtReader{s: make([]metrics.Sample, len(rtNames))}
	for i, n := range rtNames {
		r.s[i].Name = n
	}
	return r
}

func (r *rtReader) read() rtSample {
	metrics.Read(r.s)
	return rtSample{
		live:       r.s[0].Value.Uint64(),
		allocBytes: r.s[1].Value.Uint64(),
		allocObjs:  r.s[2].Value.Uint64(),
		gcCPU:      r.s[3].Value.Float64(),
		totalCPU:   r.s[4].Value.Float64(),
	}
}

// gcShare is the GC share of CPU between two samples.
func gcShare(a, b rtSample) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}

// mb converts bytes to mebibytes.
func mb(b uint64) float64 { return float64(b) / (1 << 20) }
