package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file defines the hot-path *region*: the set of functions that must
// run per packet on the Dysco data plane, computed as the static-call
// closure of a declared root set over the module call graph. allocfree
// and blockfree both scan exactly this region, and the root list is
// cross-checked against the dynamic zero-alloc tests (TestRewritePathZero-
// Alloc and friends) so the static proof and the runtime measurement
// cover the same functions.
//
// Two annotations adjust the region:
//
//	//lint:hotpath
//	    on a function declaration adds it to the root set.
//	//lint:coldpath <reason>
//	    on a function declaration makes it a traversal boundary: calls
//	    into it from hot code are fine, its body is not scanned. The
//	    reason is mandatory — a boundary is a claim that the call is
//	    conditionally off the per-packet path, and the claim must be
//	    written down.

// defaultHotpathRoots is the declared per-packet root set, as
// module-relative function keys (matched by suffix against full keys, so
// the module path stays out of the source of truth).
var defaultHotpathRoots = []string{
	// The rewrite path itself (§3.4–3.5 of the paper: per-packet header
	// rewriting in the Dysco agent).
	"internal/core.Agent.applyEgress",
	"internal/core.Agent.applyIngress",
	// The shared rewrite kernel core.Agent executes (the concurrent
	// engine runs its compiled RawRule form, below).
	"internal/core.Rule.ApplyEgress",
	"internal/core.Rule.ApplyIngress",
	// The concurrent data plane's sharded table lookup.
	"internal/dataplane.Table.Lookup",
	// The zero-copy wire fast path: per-frame worker processing, the
	// in-place RawRule kernels, and the bounds-validating view parse
	// under them.
	"internal/dataplane.worker.processRaw",
	"internal/dataplane.RawRule.ApplyEgress",
	"internal/dataplane.RawRule.ApplyIngress",
	"internal/packet.ParseView",
	"internal/packet.FiveTuple.Hash",
	"internal/packet.Bucket",
	// Sequence-space and tuple helpers the rewrite leans on.
	"internal/packet.SeqAdd",
	"internal/packet.SeqDiff",
	"internal/packet.SeqLT",
	"internal/packet.SeqLEQ",
	"internal/packet.SeqGT",
	"internal/packet.SeqGEQ",
	"internal/packet.SeqMax",
	"internal/packet.SeqMin",
	"internal/packet.ChecksumUpdate16",
	"internal/packet.ChecksumUpdate32",
	"internal/packet.FiveTuple.Reverse",
	"internal/packet.Packet.DataLen",
	"internal/packet.Packet.SeqEnd",
	"internal/packet.Packet.RewriteTuple",
	"internal/packet.Packet.RewriteSeqAck",
	"internal/packet.TCPFlags.Has",
	// Per-event observability on the rewrite path.
	"internal/obs.Recorder.Emit",
	// TCP per-segment computation kernels (window math, RTT sampling,
	// SACK scoreboard queries). Segment construction and payload copies
	// are deliberately outside the root set: they allocate by design.
	"internal/tcp.Conn.flight",
	"internal/tcp.Conn.sendWindow",
	"internal/tcp.Conn.recvWindow",
	"internal/tcp.Conn.advertisedWindow",
	"internal/tcp.Conn.sampleRTT",
	"internal/tcp.Conn.backoffRTO",
	"internal/tcp.sackScoreboard.isSacked",
	"internal/tcp.sackScoreboard.sackedAbove",
	"internal/tcp.sackScoreboard.firstHole",
}

// DefaultHotpathRoots returns the declared hot-path root set
// (module-relative keys). Exported so tests can cross-check that every
// statically proven root is also exercised by a dynamic AllocsPerRun
// test.
func DefaultHotpathRoots() []string {
	out := make([]string, len(defaultHotpathRoots))
	copy(out, defaultHotpathRoots)
	return out
}

const (
	hotpathPrefix  = "//lint:hotpath"
	coldpathPrefix = "//lint:coldpath"
)

// hotFunc is one function in the hot region with the call chain (short
// function names) that first reached it.
type hotFunc struct {
	key   string
	chain []string
}

// hotRegion is the computed closure.
type hotRegion struct {
	cg    *CallGraph
	funcs []hotFunc // BFS order from the sorted roots; each key once
	cold  map[string]string
	roots []string // full keys of roots present in the loaded packages
}

// shortFuncKey strips the module-path directory prefix from a function
// key for readable chains: "repro/internal/core.Agent.applyEgress" →
// "core.Agent.applyEgress".
func shortFuncKey(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}

// funcAnnotations scans function doc comments for //lint:hotpath and
// //lint:coldpath directives.
func funcAnnotations(pkgs []*Package) (hot []string, cold map[string]string, bad []Finding) {
	cold = map[string]string{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				for _, c := range fd.Doc.List {
					switch {
					case strings.HasPrefix(c.Text, coldpathPrefix):
						reason := strings.TrimSpace(strings.TrimPrefix(c.Text, coldpathPrefix))
						if reason == "" {
							bad = append(bad, Finding{
								Rule: "allocfree",
								Pos:  pkg.Fset.Position(c.Pos()),
								Msg:  "//lint:coldpath without a reason: a traversal boundary is a claim and must say why the call is off the per-packet path",
							})
							continue
						}
						cold[lockFuncKey(fn)] = reason
					case strings.HasPrefix(c.Text, hotpathPrefix):
						hot = append(hot, lockFuncKey(fn))
					}
				}
			}
		}
	}
	sort.Strings(hot)
	return hot, cold, bad
}

// buildHotRegion computes the hot region over a prebuilt call graph.
// Traversal follows static and resolved-interface edges; it does not
// follow dynamic edges, `go` edges, or calls inside non-invoked function
// literals (those are flagged at the call site by the scanning rules
// instead — a closure that never runs costs nothing, and one that does
// run was already flagged where it was built). Callees outside the
// loaded packages or marked coldpath are boundaries.
func buildHotRegion(pkgs []*Package, cg *CallGraph) (*hotRegion, []Finding) {
	hot, cold, bad := funcAnnotations(pkgs)
	region := &hotRegion{cg: cg, cold: cold}

	// Resolve declared roots (suffix match) plus annotated roots.
	var nodeKeys []string
	for k := range cg.Nodes {
		nodeKeys = append(nodeKeys, k)
	}
	sort.Strings(nodeKeys)
	rootSet := map[string]bool{}
	for _, want := range defaultHotpathRoots {
		for _, k := range nodeKeys {
			if k == want || strings.HasSuffix(k, "/"+want) {
				rootSet[k] = true
			}
		}
	}
	for _, k := range hot {
		if cg.Nodes[k] != nil {
			rootSet[k] = true
		}
	}
	for k := range rootSet {
		region.roots = append(region.roots, k)
	}
	sort.Strings(region.roots)

	// BFS with first-reached chains.
	visited := map[string]bool{}
	queue := make([]hotFunc, 0, len(region.roots))
	for _, r := range region.roots {
		queue = append(queue, hotFunc{key: r, chain: []string{shortFuncKey(r)}})
		visited[r] = true
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		region.funcs = append(region.funcs, f)
		for _, e := range cg.Out(f.key) {
			if e.ViaLit || e.Go {
				continue
			}
			if e.Kind == CGDynamic {
				continue // flagged at the call site by the scanners
			}
			if visited[e.Callee] || cg.Nodes[e.Callee] == nil {
				continue
			}
			if _, isCold := cold[e.Callee]; isCold {
				continue
			}
			visited[e.Callee] = true
			chain := make([]string, len(f.chain)+1)
			copy(chain, f.chain)
			chain[len(f.chain)] = shortFuncKey(e.Callee)
			queue = append(queue, hotFunc{key: e.Callee, chain: chain})
		}
	}
	return region, bad
}

// chainMsg renders "root → f → g" for finding messages.
func chainMsg(chain []string) string {
	return strings.Join(chain, " → ")
}

// hotFinding builds a rule finding anchored at a node inside a hot
// function, carrying the call chain.
func hotFinding(rule string, pkg *Package, n ast.Node, chain []string, msg string) Finding {
	return Finding{
		Rule:  rule,
		Pos:   position(pkg, n),
		Msg:   fmt.Sprintf("%s: %s", chainMsg(chain), msg),
		Chain: append([]string(nil), chain...),
	}
}
