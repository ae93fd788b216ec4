package main

import (
	"fmt"
	"runtime"
	"time"

	"lmbalance/internal/core"
	"lmbalance/internal/rng"
	"lmbalance/internal/sim"
	"lmbalance/internal/topology"
	"lmbalance/internal/workload"
)

// simParams fixes sim-large: the sharded engine at the shardbench
// set-up, run as repeated simulations of the same (seed, shards).
type simParams struct {
	n, shards, steps int
	params           core.Params
	pattern          workload.Uniform
}

func simLarge(smoke bool) simParams {
	p := simParams{n: 65536, shards: 64, steps: 10,
		params:  core.Params{F: 1.1, Delta: 1, C: 4},
		pattern: workload.Uniform{GenP: 0.5, ConP: 0.4}}
	if smoke {
		p.n, p.steps = 4096, 4
	}
	return p
}

// simFingerprint is everything one simulation reports; two simulations
// of the same (seed, shards) must agree on all of it.
type simFingerprint struct {
	metrics core.Metrics
	vd, avg float64
	nnz     int
}

// simRep is one timed simulation.
type simRep struct {
	fp      simFingerprint
	seconds float64
	setup   float64   // seconds inside core.NewSystem
	steps   []float64 // per-step wall ms
}

func (p simParams) run(seed uint64, workers int) (simRep, error) {
	var rep simRep
	var sys *core.System
	var last time.Time
	cfg := sim.Config{
		N: p.n, Steps: p.steps, Runs: 1, Seed: seed,
		Shards: p.shards, Workers: workers, StatsEvery: p.steps,
		NewBalancer: func(run int, r *rng.RNG) (sim.Balancer, error) {
			t0 := time.Now()
			s, err := core.NewSystem(p.n, p.params, topology.NewGlobal(p.n), r)
			rep.setup = time.Since(t0).Seconds()
			sys = s
			last = time.Now()
			return s, err
		},
		NewPattern: func(run int, r *rng.RNG) (workload.Pattern, error) { return p.pattern, nil },
	}
	cfg.Observe = func(run, t int, bal sim.Balancer) {
		now := time.Now()
		rep.steps = append(rep.steps, float64(now.Sub(last).Nanoseconds())/1e6)
		last = now
	}
	t0 := time.Now()
	res, err := sim.Run(cfg)
	rep.seconds = time.Since(t0).Seconds()
	if err != nil {
		return rep, err
	}
	if err := sys.CheckInvariants(); err != nil {
		return rep, fmt.Errorf("invariants: %w", err)
	}
	m := res.CoreMetrics
	if int64(sys.TotalLoad()) != m.Generated-m.Consumed {
		return rep, fmt.Errorf("packet conservation: load %d, generated %d - consumed %d", sys.TotalLoad(), m.Generated, m.Consumed)
	}
	rep.fp = simFingerprint{metrics: m, vd: res.FinalLoadVD, avg: res.Avg.At(p.steps - 1).Mean(), nnz: sys.NNZ()}
	return rep, nil
}

func runSimLarge(cfg runConfig) (*outcome, error) {
	p := simLarge(cfg.smoke)
	workers := runtime.NumCPU()
	window := time.Duration(cfg.seconds * float64(time.Second))

	// The seed's reference fingerprint comes from one worker: the engine
	// promises results keyed on (seed, shards) alone, so every timed
	// repetition at full width must reproduce it bit for bit.
	ref, err := p.run(cfg.seed, 1)
	if err != nil {
		return nil, err
	}
	heap := startHeapSampler()
	var secs, setups []float64
	var steps []latSample
	start := time.Now()
	for len(secs) < 3 || time.Since(start) < window {
		rep, err := p.run(cfg.seed, workers)
		if err != nil {
			return nil, err
		}
		if rep.fp != ref.fp {
			return nil, fmt.Errorf("repetition %d: fingerprint %+v differs from the seed's %+v", len(secs), rep.fp, ref.fp)
		}
		secs = append(secs, rep.seconds)
		setups = append(setups, rep.setup)
		at := time.Since(start).Seconds()
		for _, ms := range rep.steps {
			steps = append(steps, latSample{at: at, ms: ms})
		}
	}
	elapsed := time.Since(start).Seconds()
	heapMB := heap.stopMB()

	procSteps := float64(p.n) * float64(p.steps)
	o := &outcome{attempted: int64(len(secs))}
	o.checks = []string{
		fmt.Sprintf("%d repetitions reproduce the seed's one-worker fingerprint (avg %.4f, vd %.4f, %d balance ops)", len(secs), ref.fp.avg, ref.fp.vd, ref.fp.metrics.BalanceOps),
		"System.CheckInvariants and packet conservation after every repetition",
	}
	o.e2e = e2eMetrics(steps, elapsed, latencySpec{0.9, 1}, procSteps/median(secs), len(secs), heapMB, setups)
	if cfg.traced {
		s := sortedCopy(latValues(steps))
		m := ref.fp.metrics
		o.layer = []metric{
			{"core.balance_ops", "count", float64(m.BalanceOps), 1},
			{"core.migrations", "count", float64(m.Migrations), 1},
			{"core.total_borrow", "count", float64(m.TotalBorrow), 1},
			{"core.nnz_final", "count", float64(ref.fp.nnz), 1},
			{"sim.step_p50_ms", "ms", quantile(s, 0.5), len(s)},
			{"sim.step_p99_ms", "ms", quantile(s, 0.99), len(s)},
		}
	}
	return o, checkNames(o)
}
