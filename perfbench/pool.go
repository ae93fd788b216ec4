package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"lmbalance/internal/obs"
	"lmbalance/internal/pool"
	"lmbalance/internal/rng"
)

// poolParams fixes pool-tree: repeated trees, each one root task that
// spawns a complete binary tree of the given depth on a 2-worker pool,
// every task running a fixed xorshift loop.
type poolParams struct {
	workers, depth, work int
	f                    float64
	delta                int
	setups               int
}

func poolTree(smoke bool) poolParams {
	p := poolParams{workers: 2, depth: 12, work: 2000, f: 1.2, delta: 1, setups: 15}
	if smoke {
		p.depth, p.setups = 6, 2
	}
	return p
}

// taskWork is the fixed per-task loop: xorshift64 from a seed that
// depends on the run seed and the task's heap index.
func taskWork(seed uint64, id, iters int) uint64 {
	x := rng.Mix64(seed, uint64(id)) | 1
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// tree runs trees on one pool and checks each one.
type tree struct {
	p        poolParams
	seed     uint64
	pl       *pool.Pool
	size     int
	want     uint64 // checksum of every task's result
	sum      atomic.Uint64
	executed atomic.Int64
	// traced: per-task wait from submit to start
	traced bool
	submit []int64 // by heap index, ns since traceEpoch
	waits  *obs.Histogram
}

func newTree(p poolParams, seed uint64, want uint64) (*tree, error) {
	pl, err := pool.New(pool.Config{Workers: p.workers, F: p.f, Delta: p.delta, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &tree{p: p, seed: seed, pl: pl, size: 1<<(p.depth+1) - 1, want: want}, nil
}

// task returns heap node id's task: its work, then its two children.
func (t *tree) task(id int) pool.Task {
	return func(w *pool.Worker) {
		if t.traced {
			t.waits.Observe(float64(nowNS()-t.submit[id]) / 1e9)
		}
		t.sum.Add(taskWork(t.seed, id, t.p.work))
		t.executed.Add(1)
		for c := 2 * id; c <= 2*id+1 && c <= t.size; c++ {
			if t.traced {
				t.submit[c] = nowNS()
			}
			w.Submit(t.task(c))
		}
	}
}

// runOne runs one tree to completion and checks it.
func (t *tree) runOne() error {
	t.sum.Store(0)
	t.executed.Store(0)
	if t.traced {
		t.submit[1] = nowNS()
	}
	t.pl.Submit(t.task(1))
	t.pl.Wait()
	if got := t.executed.Load(); got != int64(t.size) {
		return fmt.Errorf("tree executed %d tasks, want %d", got, t.size)
	}
	if got := t.sum.Load(); got != t.want {
		return fmt.Errorf("tree checksum %#x, want %#x", got, t.want)
	}
	return nil
}

func runPoolTree(cfg runConfig) (*outcome, error) {
	p := poolTree(cfg.smoke)
	size := 1<<(p.depth+1) - 1
	var want uint64
	for id := 1; id <= size; id++ {
		want += taskWork(cfg.seed, id, p.work)
	}
	window := time.Duration(cfg.seconds * float64(time.Second))

	// Set-up is a fresh pool plus one warm-up tree, so goroutine stacks
	// and queues are grown before timing.
	var setups []float64
	var t *tree
	for i := 0; i < p.setups; i++ {
		if t != nil {
			t.pl.Close()
		}
		t0 := time.Now()
		var err error
		if t, err = newTree(p, cfg.seed, want); err != nil {
			return nil, err
		}
		if err := t.runOne(); err != nil {
			t.pl.Close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer t.pl.Close()
	if cfg.traced {
		t.traced = true
		t.submit = make([]int64, size+1)
		t.waits = obs.NewHistogram(obs.SojournBuckets)
	}

	before := t.pl.Stats()
	heap := startHeapSampler()
	var lat []latSample
	start := time.Now()
	for time.Since(start) < window {
		t0 := time.Now()
		if err := t.runOne(); err != nil {
			return nil, err
		}
		lat = append(lat, latSample{at: time.Since(start).Seconds(), ms: time.Since(t0).Seconds() * 1e3})
	}
	elapsed := time.Since(start).Seconds()
	heapMB := heap.stopMB()
	after := t.pl.Stats()

	tasks := int64(len(lat)) * int64(size)
	var executed int64
	lo, hi := int64(-1), int64(0)
	for i := range after.Executed {
		e := after.Executed[i] - before.Executed[i]
		executed += e
		if lo < 0 || e < lo {
			lo = e
		}
		hi = max(hi, e)
	}
	if executed != tasks {
		return nil, fmt.Errorf("pool executed %d tasks over %d trees of %d", executed, len(lat), size)
	}
	o := &outcome{attempted: int64(len(lat))}
	o.checks = []string{fmt.Sprintf("%d trees: each executed %d tasks with checksum %#x", len(lat), size, want)}
	o.e2e = e2eMetrics(lat, elapsed, latencySpec{0.95, 1}, float64(tasks)/elapsed, int(tasks), heapMB, setups)
	if cfg.traced {
		balances := after.Balances - before.Balances
		migrated := after.Migrated - before.Migrated
		perBalance := 0.0
		if balances > 0 {
			perBalance = float64(migrated) / float64(balances)
		}
		mean := float64(executed) / float64(len(after.Executed))
		o.layer = []metric{
			{"pool.balances", "count", float64(balances), 1},
			{"pool.migrated_per_balance", "count", perBalance, int(balances)},
			{"pool.exec_spread_frac", "frac", float64(hi-lo) / mean, len(after.Executed)},
			{"pool.task_wait_p99_us", "us", t.waits.Quantile(0.99) * 1e6, int(t.waits.Count())},
		}
	}
	return o, checkNames(o)
}
