// Package dataplane is the concurrent run-to-completion packet-rewrite
// engine: the multi-core execution of the same §3.4/§4.2 rewrite
// semantics that core.Agent runs single-threaded inside the simulator.
//
// The paper's core performance claim (§4, Fig. 8–9) is that session-based
// five-tuple rewriting is cheap enough for the packet path at line rate.
// This package makes that claim testable in the repro: a sharded rewrite
// table with lock-free, allocation-free lookups (per-shard immutable
// snapshots swapped atomically; writers copy-on-write under a per-shard
// mutex), a zero-copy frame path (ParseView → Table.Lookup → the entry's
// compiled RawRule, rewriting the frame bytes in place with incremental
// checksums), a pool of per-core workers pulling fixed-size batches of
// frames from per-worker SPSC rings (the RSS model: one queue per core,
// flows pinned to queues by hash), and control-plane install/remove
// operations serialized through the shard writers.
//
// Correctness is anchored to the simulator, not re-argued from scratch:
// core.Rule, the kernel core.Agent runs, is the spec every RawRule is
// compiled from, and the differential oracle (RunRawDiff) replays one
// frame+control sequence through a single-threaded Ref (Parse →
// core.Rule → Serialize) and through the concurrent engine under -race,
// asserting byte-identical frames for stable flows and, for frames
// racing concurrent install/remove churn on their own keys, either the
// untouched frame or the rewrite of one single installed version (never
// a torn entry).
//
// Table.Lookup and worker.processRaw are hot-path roots: the allocfree
// and blockfree lint rules statically prove the reader fast path
// allocates nothing and cannot block.
package dataplane
