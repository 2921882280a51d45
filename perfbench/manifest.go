package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// manifestPath is BENCHMARK.json, relative to the repository root the
// benchmark runs from. It declares the metrics every run prints.
const manifestPath = "BENCHMARK.json"

// metricDef is one metric of the manifest: its name and unit, and the
// workloads that run the layer it measures.
type metricDef struct {
	name, unit string
	on         string // onAll, onSim or one workload's name
}

const (
	onAll = "all"
	onSim = "sim" // sim-http and sim-splice
)

// runs reports whether workload w runs the layer d measures.
func (d metricDef) runs(w string) bool {
	return d.on == onAll || d.on == w || (d.on == onSim && strings.HasPrefix(w, "sim-"))
}

// endToEnd is what every untraced run prints. Each metric applies to
// every workload, so the result line holds the same set everywhere.
var endToEnd = []metricDef{
	{"setup_s", "s", onAll},
	{"wall_s", "s", onAll},
	{"peak_heap_mb", "MB", onAll},
}

// perLayer is what every traced run prints. A workload that does not run
// a layer reads 0 for it: the sim workloads never enter the data plane,
// dp-churn never enters the simulator, and only sim-splice reconfigures.
var perLayer = []metricDef{
	{"sim.events", "count", onSim},
	{"sim.ns_per_event", "ns", onSim},
	{"sim.queue_max", "count", onSim},
	{"runtime.alloc_bytes_per_event", "B", onSim},
	{"runtime.allocs_per_event", "count", onSim},
	{"runtime.gc_cpu_share", "share", onAll},
	{"netsim.packets", "count", onSim},
	{"netsim.drops", "count", onSim},
	{"core.rewrites", "count", onSim},
	{"core.ctrl_retransmits", "count", onSim},
	{"core.locks_nacked", "count", onSim},
	{"core.reconfigs_failed", "count", onSim},
	{"tcp.retransmits", "count", onSim},
	{"tcp.timeouts", "count", onSim},
	{"obs.events", "count", "sim-splice"},
	{"span.setup_s", "s", onAll},
	{"span.app.NewLoadGen_s", "s", "sim-http"},
	{"span.tcp.Stack.Connect_s", "s", "sim-splice"},
	{"span.mbox.ProxyPair.Splice_s", "s", "sim-splice"},
	{"span.lab.Env.RunFor_s", "s", onSim},
	{"sim.cpu_share", "share", onAll},
	{"netsim.cpu_share", "share", onAll},
	{"tcp.cpu_share", "share", onAll},
	{"core.cpu_share", "share", onAll},
	{"mbox.cpu_share", "share", onAll},
	{"app.cpu_share", "share", onAll},
	{"packet.cpu_share", "share", onAll},
	{"obs.cpu_share", "share", onAll},
	{"dataplane.cpu_share", "share", onAll},
	{"runtime.gc_bg_cpu_share", "share", onAll},
	{"harness.cpu_share", "share", onAll},
	{"runtime.other_cpu_share", "share", onAll},
	{"internal.other_cpu_share", "share", onAll},
	{"trace.overhead_share", "share", onAll},
	{"harness.now_pair_ns", "ns", onAll},
	{"packet.parseview_ns", "ns", "dp-churn"},
	{"packet.hash_ns", "ns", "dp-churn"},
	{"dataplane.lookup_ns", "ns", "dp-churn"},
	{"dataplane.rawrule_ns", "ns", "dp-churn"},
	{"dataplane.frame_ns", "ns", "dp-churn"},
	{"dataplane.unattributed_ns", "ns", "dp-churn"},
	{"dataplane.lookup_bracketed_ns", "ns", "dp-churn"},
	{"dataplane.install_us", "us", "dp-churn"},
	{"dataplane.remove_us", "us", "dp-churn"},
	{"dataplane.hit_ratio", "share", "dp-churn"},
	{"dataplane.rejected_share", "share", "dp-churn"},
	{"control.late_max_us", "us", "dp-churn"},
	{"control.update_p50_us", "us", "dp-churn"},
	{"control.update_tail_us", "us", "dp-churn"},
	{"runtime.alloc_bytes_per_update", "B", "dp-churn"},
	{"dataplane.ring_mpps", "Mpps", "dp-churn"},
	{"dataplane.feed_ns", "ns", "dp-churn"},
	{"dataplane.ring_full_share", "share", "dp-churn"},
}

// complete makes the run's metrics exactly set: a metric the workload
// measures must have been reported in its unit, a metric of a layer the
// workload does not run reads 0, and nothing else may be reported.
func (b *bench) complete(set []metricDef) {
	known := map[string]bool{}
	for _, d := range set {
		known[d.name] = true
		m, ok := b.metrics[d.name]
		switch {
		case d.runs(b.workload) && !ok:
			b.check(false, "%s was not measured", d.name)
			b.metrics[d.name] = metric{Value: 0, Unit: d.unit}
		case !d.runs(b.workload) && ok:
			b.check(false, "%s was measured by a workload that does not run its layer", d.name)
		case !ok:
			b.metrics[d.name] = metric{Value: 0, Unit: d.unit}
		case m.Unit != d.unit:
			b.check(false, "%s reported in %s, want %s", d.name, m.Unit, d.unit)
		}
	}
	for name := range b.metrics {
		b.check(known[name], "%s is not a metric of %s", name, manifestPath)
	}
}

// checkManifest verifies that the manifest at path declares exactly the
// metrics this program prints, in the same order and units.
func checkManifest(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var m struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("manifest %s: %w", path, err)
	}
	for _, c := range []struct {
		key  string
		got  []entry
		want []metricDef
	}{{"end_to_end", m.EndToEnd, endToEnd}, {"per_layer", m.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			return fmt.Errorf("manifest %s: %s has %d metrics, the benchmark prints %d", path, c.key, len(c.got), len(c.want))
		}
		for i, d := range c.want {
			if c.got[i].Name != d.name || c.got[i].Unit != d.unit {
				return fmt.Errorf("manifest %s: %s[%d] is %s in %s, the benchmark prints %s in %s",
					path, c.key, i, c.got[i].Name, c.got[i].Unit, d.name, d.unit)
			}
		}
	}
	return nil
}
