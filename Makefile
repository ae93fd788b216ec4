GO ?= go

.PHONY: check race bench bench-obs bench-wire bench-shard bench-pace bench-serve bench-journey bench-flight fuzz experiments

# Tier-1 gate: everything must pass before a change lands. The -cpu leg
# reruns the packages whose results or tests depend on goroutine
# scheduling (the sharded engine's parallel barrier, the worker pools)
# under several GOMAXPROCS values, so a host-dependent test or a
# schedule-dependent result shows up on every change, not only on
# machines with an unusual core count.
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -cpu 1,2,4 -count=3 ./internal/core ./internal/sim ./internal/pool
	$(GO) test -race ./internal/pool ./internal/sim ./internal/netsim ./internal/wire ./internal/cluster ./internal/obs ./internal/serve ./internal/flight ./cmd/lbnode

# Race-detector pass over the concurrent packages and the core they drive.
race:
	$(GO) test -race ./internal/pool ./internal/sim ./internal/core ./internal/netsim ./internal/wire ./internal/cluster ./internal/obs ./internal/serve ./internal/flight ./cmd/lbnode

# Microbenchmarks for the sparse core (see results/BENCH_sparse.json).
bench:
	$(GO) test . -run xxx -bench 'BenchmarkBalanceOp|BenchmarkGenerateConsume|BenchmarkNewSystem' -benchmem

# Instrumentation overhead microbenchmarks (see results/BENCH_obs.json):
# the disabled path must stay ≤2 ns/op with zero allocations.
bench-obs:
	$(GO) test ./internal/obs/ -run xxx -bench 'BenchmarkObs' -benchmem

# Wire codec microbenchmarks: v2 (op ids) encode/decode vs the v1
# framing, plus frame reads (see results/BENCH_wire.json). The Op field
# must cost ≤1 byte on v1-shaped messages (TestOpFieldOverhead).
bench-wire:
	$(GO) test ./internal/wire/ -run xxx -bench 'BenchmarkWire' -benchmem

# Sharded-engine within-run scaling: proc-steps/sec vs worker count on
# the identical (seed, shards) simulation, with cross-worker bit-identity
# asserted. The checked-in results/BENCH_shard.json was captured with
# -sizes 65536,1000000; the CI pass keeps to the CI-sized sweep.
bench-shard:
	$(GO) run ./cmd/shardbench -sizes 65536

# Initiation pacing on real TCP sockets at the pathological size
# (n=16, hot-quarter): completion rate and msgs per completed op under
# off / fixed / adaptive AIMD pacing. Fails unless conservation holds
# and adaptive beats free-running. The checked-in results/BENCH_pace.json
# was captured with -out results/BENCH_pace.json.
bench-pace:
	$(GO) run ./cmd/pacebench

# Serving-path SLO on real TCP sockets: the same skewed open-loop
# workload (diurnal envelope, bounded-Pareto demands, hot nodes) against
# a no-balancing control, free-running balancing, and adaptive pacing.
# Fails unless every arm conserves packets and jobs and balancing beats
# the control on p99 sojourn. The checked-in results/BENCH_serve.json
# was captured with -out results/BENCH_serve.json.
bench-serve:
	$(GO) run ./cmd/lbload -bench

# Journey tracing + health-monitor cost: stamped vs unstamped job-record
# frame bytes under codec v3, and the monitor's metrics-only poll vs the
# full aggregator scrape. Fails if a stamped record exceeds 32 marginal
# bytes or the metrics-only poll is not cheaper. The checked-in
# results/BENCH_journey.json was captured with -out.
bench-journey:
	$(GO) run ./cmd/journeybench

# Flight recorder cost: marginal per-frame tap overhead vs the raw
# loopback send, on-disk bytes per recorded event, and offline replay
# throughput (load + shadow audit). Fails if the tap exceeds its ns
# budget or replay drops under the events/s floor. The checked-in
# results/BENCH_flight.json was captured with -out.
bench-flight:
	$(GO) run ./cmd/flightbench

# Short fuzz passes: the core op-sequence fuzzer and the wire codec.
fuzz:
	$(GO) test ./internal/core/ -run xxx -fuzz FuzzOpSequence -fuzztime 30s
	$(GO) test ./internal/wire/ -run xxx -fuzz FuzzWireRoundTrip -fuzztime 30s

# Full experiment sweep (slow); see EXPERIMENTS.md.
experiments:
	$(GO) run ./cmd/paperfigs -full -out results
