#!/bin/sh
# check.sh — the full pre-merge gate: build, vet, race-enabled tests, the
# repo's own static-analysis suite (cmd/dyscolint), a fuzz smoke over
# every wire decoder, the observability micro-benchmark, and the
# fault-injection safety sweep. The lint run lands its machine-readable
# findings in LINT_report.json, the module call graph (the input to the
# allocfree/blockfree hot-path proofs) in LINT_callgraph.txt, and the
# extracted wire-format layout tables (the input to the wiresafe codec
# proofs) in LINT_wire.txt; the benchmark's metrics summary lands in
# BENCH_obs.json (with the causal DAG hash and critical-path summary),
# the concurrent data-plane sweep (throughput and lookup-latency
# quantiles over workers×shards) in BENCH_dataplane.json, and the
# sweep's per-run results (event/schedule/DAG hashes, oracles) in
# FAULT_sweep.json; the per-scenario reconfiguration critical paths land
# in CRITPATH.json, gated on byte-identical re-extraction. CI archives
# all seven as workflow artifacts. Everything here must pass before a
# change lands; CI and developers run the same script.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
go test -race ./...
go run ./cmd/dyscolint -json ./... > LINT_report.json || { cat LINT_report.json; exit 1; }
go run ./cmd/dyscolint -callgraph ./... > LINT_callgraph.txt
go run ./cmd/dyscolint -wire ./... > LINT_wire.txt

# Fuzz smoke: the wiresafe pass proves the decoders panic-free statically;
# these runs pin the same claim dynamically from the checked-in corpora.
go test ./internal/packet -run '^$' -fuzz '^FuzzPacketParse$' -fuzztime 10s
go test ./internal/core   -run '^$' -fuzz '^FuzzSynPayload$'  -fuzztime 10s
go test ./internal/core   -run '^$' -fuzz '^FuzzCtrlMsg$'     -fuzztime 10s
go test ./internal/rudp   -run '^$' -fuzz '^FuzzRudpInput$'   -fuzztime 10s
go test ./internal/dataplane -run '^$' -fuzz '^FuzzRawRewrite$' -fuzztime 10s
go run ./cmd/dyscobench -short -obsout BENCH_obs.json
go run ./cmd/dyscofault -short -json FAULT_sweep.json

# Concurrent data-plane gate. The raw differential oracle (stable flows
# byte-exact, same-key churn version-consistent) and snapshot churn
# stress already ran under -race above (internal/dataplane is part of
# the module test sweep); this re-runs just that package's engine,
# table and raw-path tests as an explicit, greppable gate, then takes
# the quick-scale raw-path throughput sweep, which always ends with the
# wire-path comparison (struct round trip vs zero-copy raw). The >2x
# parallel-speedup and raw>=2x-struct checks inside the sweep self-gate
# on hosts granted fewer than 4 CPUs; the GitHub runners have 4 vCPUs,
# so CI enforces both and archives the sweep as BENCH_dataplane.json.
go test -race -run 'TestEngine|TestTable|TestRaw' ./internal/dataplane
go run ./cmd/dyscobench -dataplane -dpout BENCH_dataplane.json

# Critical-path determinism gate: for every scenario, extract the
# reconfiguration critical paths twice with the same seed and require
# byte-identical JSON (dyscotrace itself exits nonzero if any path fails
# causal validation). The concatenation is archived as CRITPATH.json.
: > CRITPATH.json
for sc in proxyremoval chain statemigration; do
    go run ./cmd/dyscotrace -scenario "$sc" -critical -json > CRITPATH.run1.json
    go run ./cmd/dyscotrace -scenario "$sc" -critical -json > CRITPATH.run2.json
    cmp CRITPATH.run1.json CRITPATH.run2.json
    cat CRITPATH.run1.json >> CRITPATH.json
    rm CRITPATH.run1.json CRITPATH.run2.json
done
