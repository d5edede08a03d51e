#!/bin/sh
# Tier-2 checks: static analysis plus race-detector runs over the
# concurrent hot paths (the wire protocol's demux/dispatch and the spill
# targets). Run on every PR alongside the tier-1 build-and-test.
set -e
cd "$(dirname "$0")/.."

echo "== go build ./... =="
go build ./...

echo "== GOOS=darwin go build ./... (portable fallback must compile) =="
# The zero-copy serve path (sendfile, SCM_RIGHTS fd passing) is linux-only
# behind build tags; the darwin cross-compile proves the portable
# buffered fallback keeps every package building off-linux.
GOOS=darwin go build ./...

echo "== go vet ./... =="
go vet ./...

echo "== gofmt -l (benchmark module included) =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt would reformat:"
	echo "$unformatted"
	exit 1
fi

echo "== go test -race ./internal/sponge/... ./internal/spill/... ./internal/pig/... ./internal/workload/... =="
# The Pig record path hands one reused buffer from the corpus generator
# through emit and shares one backing across a decoded tuple's fields;
# its byte-identity tests and allocation guards run under the detector
# too.
go test -race -count=1 ./internal/sponge/... ./internal/spill/... \
	./internal/pig/... ./internal/workload/...

echo "== allocation-regression guards =="
# The hot-path guards must hold: O(1) pool alloc/free and steady-state
# File.Write and windowed File.Read at zero allocations, plus the
# absolute macro allocs/op ceiling on one small Median run. The obs guards keep counter/gauge/histogram ops
# and trace-ring appends allocation-free so instrumentation stays off
# the spill path's alloc budget. The mapreduce guards pin the map-side
# combiner scratch and the node-combine publish path at zero steady-
# state allocations per record. The Pig record-path guards hold the
# corpus generator at zero allocations per record, the unprojected Pig
# map at DecodeTuple's own allocations, and DecodeTuple on a corpus
# record at its measured ceiling (one string copy, one slot backing,
# one box per non-integer field).
go test -count=1 -run 'AllocationFree|TestMacroAllocRegressionGuard|TestDecodeTupleAllocCeiling' \
	./internal/sponge ./internal/simtime ./internal/bench ./internal/obs \
	./internal/mapreduce ./internal/pig ./internal/workload

echo "== fuzz: pig tuple decoder =="
# A short run of the hostile-input target: the checked decoder must not
# panic, and whatever it accepts must re-encode to exactly its input.
go test -count=1 -run '^$' -fuzz '^FuzzDecodeTuple$' -fuzztime 10s ./internal/pig

# Wire transport guard: steady-state ReadInto must stay 0 allocs/chunk
# on all six serve paths — TCP and unix pool reads, sendfile spill
# serves (the portable buffered path off-linux), and the fd-passing
# pread fast paths for both the spill file and the memfd pool segments.
# The server runs in-process, so the guard sees its side too.
go test -count=1 -run 'TestWireReadSteadyStateAllocationFree' \
	./internal/sponge/wire

echo "== readahead sweep smoke + depth-1 seed equivalence =="
# One tiny depth-sweep iteration over both transports, and the pinned
# bit-exact check that ReadAheadDepth=1 reproduces the seed prefetcher.
go test -count=1 -run 'TestReadAheadSweepSmoke|TestReadAheadDepth1MatchesSeedPrefetcher' \
	./internal/bench

echo "== tracker dissemination smoke =="
# Small-N run of the tracker scale sweep: delta dissemination must cost
# fewer tracker messages than full polling and grow sublinearly with the
# cluster, plus the deterministic-replay check on one delta cell.
go test -count=1 -run 'TestTrackerSweep' ./internal/bench

echo "== node-combine shape + determinism smoke =="
# Small-N node-combine checks: the shared per-node buffer must cut the
# shuffle >=25% versus per-task combining with the answer preserved, and
# the node-combined reduce output must stay byte-identical to the
# task-combined run's.
go test -count=1 -run 'TestNodeCombineCutsShuffleAndPreservesAnswer|TestNodeCombineDeterministicOutput' \
	./internal/mapreduce

echo "== benchmark module: vet + short self-tests =="
# perfbench is a module of its own (it builds against this repository
# through a replace directive), so ./... above never compiles it; an API
# it uses could otherwise vanish without any check failing.
(cd perfbench && go vet ./... && go test -short ./...)

echo "== scenario matrix smoke (quick cases) =="
# The two quick seed scenarios — a digest-verified spill round trip and
# the delta-dissemination convergence case — run against real child
# server processes, end to end through the spongesim runner.
go run ./cmd/spongesim -run 'spill-roundtrip-clean|delta-convergence' -report /tmp/scenario-smoke.json

echo "tier2 OK"
