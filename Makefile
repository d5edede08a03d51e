# Tier-1: the must-stay-green gate (build + full test suite).
tier1:
	go build ./... && go test ./...

# Tier-2: go vet plus race-detector runs over the concurrent subsystems
# (wire protocol demux/dispatch, spill targets).
tier2:
	./scripts/check.sh

# Scenario matrix: run the full seed suite of named fault-injection
# scenarios against real child-process clusters (spongesim -list shows
# the cases) and write the machine-readable report for CI.
scenarios:
	go run ./cmd/spongesim -run all -report report.json

# Quick subset of the scenario matrix (the cases marked q in -list),
# used as the CI smoke.
scenarios-quick:
	go run ./cmd/spongesim -run all -quick -report report.json

# Observability smoke: boot a 3-node TCP cluster of sponge daemons,
# scrape each over OpMetrics and the HTTP /metrics sidecar, and check
# known counters appear in the expositions and the stats table.
stats-smoke:
	./scripts/stats_smoke.sh

# Wire protocol benchmarks: one pipelined connection and a pooled
# client at 1, 4 and 16 concurrent requests (BENCH_wire.json records
# earlier results, including the retired lock-step rows).
bench-wire:
	go test ./internal/sponge/wire -run '^$$' -bench BenchmarkWire -benchtime 1s -cpu=1,4,16

# Fault-injection experiment: spill placement, retries, and timing vs
# exchange drop rate, simulated vs real-TCP wire transport; regenerates
# BENCH_faults.json.
bench-faults:
	go run ./cmd/benchtab -out BENCH_faults.json faults

# Readahead experiment: window depth vs injected per-exchange latency,
# read-back throughput of a fully remote file over both transports;
# regenerates BENCH_readahead.json.
bench-readahead:
	go run ./cmd/benchtab -out BENCH_readahead.json readahead

# Local transport tier ladder: steady-state 64KiB reads over loopback
# TCP, unix sockets, sendfile spill serves, and the fd-passing pread
# fast paths (spill file + memfd pool segments); patches the measured
# rungs into BENCH_wire.json's tier_ladder section.
bench-tier:
	go run ./cmd/benchtab -out BENCH_wire.json tier

# Tracker dissemination at scale: tracker messages per node per second,
# full-poll vs delta, at 100 and 1000 simulated nodes under identical
# churn; regenerates BENCH_tracker.json.
bench-tracker:
	go run ./cmd/benchtab -out BENCH_tracker.json tracker

# Combine-scope sweep: {no combiner, task combine, node combine, node
# combine + sponge-backed overflow} x {Zipf wordcount, uniform
# wordcount, algebraic Pig domain count}; shuffle volume, spill
# traffic, and runtime per cell; regenerates BENCH_combine.json.
bench-combine:
	go run ./cmd/benchtab -out BENCH_combine.json combine

.PHONY: tier1 tier2 scenarios scenarios-quick stats-smoke bench-wire bench-faults bench-readahead bench-tier bench-tracker bench-combine
