package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer, with the
// counter deltas observed across it. Spans stay in memory and are
// written out when the run ends.
type span struct {
	Name     string             `json:"name"`
	Parent   int                `json:"parent"` // index of the enclosing span, -1 for none
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer records spans relative to its creation time. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span nested in the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartNs: time.Since(t.t0).Nanoseconds()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, attaching counter deltas (name, value pairs).
func (t *tracer) end(id int, kv ...any) {
	if t == nil || id < 0 {
		return
	}
	s := &t.spans[id]
	s.EndNs = time.Since(t.t0).Nanoseconds()
	if len(kv) > 0 {
		s.Counters = make(map[string]float64, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			s.Counters[kv[i].(string)] = toFloat(kv[i+1])
		}
	}
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case uint64:
		return float64(x)
	}
	panic(fmt.Sprintf("span counter of type %T", v))
}

// selfTime sums, per span name, the span durations minus the time their
// child spans cover, in seconds.
func (t *tracer) selfTime() map[string]float64 {
	out := map[string]float64{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for i, s := range t.spans {
		out[s.Name] += float64(s.EndNs-s.StartNs-child[i]) / 1e9
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644)
}

// profile is a CPU profile being written to a file in the trace directory.
type profile struct {
	path string
	f    *os.File
}

func startProfile(dir, name string) (*profile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &profile{path: filepath.Join(dir, name)}
	f, err := os.Create(p.path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.f = f
	return p, nil
}

func (p *profile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// Fold buckets.
const (
	foldGCBg    = "runtime.gc_bg" // GC background mark workers
	foldHarness = "harness"       // the benchmark's own code
	foldOther   = "runtime.other" // scheduler, syscalls, everything else
)

// foldProfiles reads the profiles back, merged, with `go tool pprof
// -traces` and attributes every sample to the innermost
// repro/internal/<pkg> frame of its stack. Stacks with no such frame go
// to the GC background workers when runtime.gcBgMarkWorker is on them,
// to the harness when a frame of package main is, and to runtime.other
// otherwise. It returns each bucket's share of all samples.
func foldProfiles(paths []string) (map[string]float64, error) {
	out, err := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, paths...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTraces(out)
}

// foldTraces parses pprof's -traces text: blocks separated by dashed
// lines, each starting with "<value> <leaf frame>" followed by one
// caller frame per line.
func foldTraces(text []byte) (map[string]float64, error) {
	weights := map[string]float64{}
	var total float64
	var block []string
	flush := func() error {
		if len(block) == 0 {
			return nil
		}
		fields := strings.Fields(block[0])
		if len(fields) < 2 {
			return fmt.Errorf("pprof trace header %q", block[0])
		}
		d, err := time.ParseDuration(fields[0])
		if err != nil {
			return fmt.Errorf("pprof trace value %q: %w", fields[0], err)
		}
		frames := append([]string{strings.Join(fields[1:], " ")}, block[1:]...)
		w := d.Seconds()
		weights[foldStack(frames)] += w
		total += w
		block = block[:0]
		return nil
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	inBody := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inBody = true
			if err := flush(); err != nil {
				return nil, err
			}
			continue
		}
		if inBody && strings.TrimSpace(line) != "" {
			block = append(block, strings.TrimSpace(line))
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("profile has no samples")
	}
	for k := range weights {
		weights[k] /= total
	}
	return weights, nil
}

// foldStack names the bucket of one stack, leaf first.
func foldStack(frames []string) string {
	const prefix = "repro/internal/"
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, prefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	harness := false
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") {
			return foldGCBg
		}
		if strings.HasPrefix(f, "main.") {
			harness = true
		}
	}
	if harness {
		return foldHarness
	}
	return foldOther
}

// sharePkgs are the repro/internal packages whose CPU share every traced
// run reports, whichever path its workload drives.
var sharePkgs = []string{"sim", "netsim", "tcp", "core", "mbox", "app", "packet", "obs", "dataplane"}

// reportShares emits <pkg>.cpu_share for each of sharePkgs (0 when it
// had no samples) plus the GC background, harness and remainder buckets.
func (b *bench) reportShares(shares map[string]float64) {
	for _, p := range sharePkgs {
		b.layer(p+".cpu_share", "share", shares[p])
	}
	b.layer("runtime.gc_bg_cpu_share", "share", shares[foldGCBg])
	b.layer("harness.cpu_share", "share", shares[foldHarness])
	b.layer("runtime.other_cpu_share", "share", shares[foldOther])
	var unlisted float64
	listed := map[string]bool{foldGCBg: true, foldHarness: true, foldOther: true}
	for _, p := range sharePkgs {
		listed[p] = true
	}
	for k, v := range shares {
		if !listed[k] {
			unlisted += v
		}
	}
	b.layer("internal.other_cpu_share", "share", unlisted)
}

// nowPairBatch and nowPairBatches size the time.Now pair probe.
const (
	nowPairBatch   = 20000
	nowPairBatches = 9
)

// nowPairNs is the cost of two back-to-back time.Now calls, the floor
// under any bracket a span or a per-call timer puts around a call:
// batch-timed, median over batches.
func nowPairNs() float64 {
	per := make([]float64, nowPairBatches)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < nowPairBatch; i++ {
			_ = time.Now()
			_ = time.Now()
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / nowPairBatch
	}
	return median(per)
}
