// Sharded within-run simulation engine.
//
// The sequential engine (oneRun) parallelizes over runs, which is the
// right shape for the paper's 100-run experiments at n ≤ 4096 but leaves a
// single million-processor run serial. The sharded engine parallelizes
// inside one run: the n processors are partitioned into S contiguous
// shards, each driven through a core.Lane view by its own deterministic
// RNG streams, and every global tick proceeds in phases:
//
//  1. Step phase (parallel over shards). Each shard shuffles its local
//     processor order and steps its processors: workload action draws,
//     local generates/consumes, local borrow decisions. Balancing
//     conditions are not acted on; they are appended to the shard's
//     mailbox (trigger initiations and consumes that need settlement).
//  2. Trigger barrier (deterministic). Mailboxes are drained in canonical
//     order — shard-major, shard-local index ascending, never arrival or
//     scheduling order. Each deferred initiation k gets a private RNG
//     stream keyed (Seed, run, tick, k). A parallel plan pass draws every
//     operation's δ partners from its stream exactly once and keeps both
//     the partners and the stream, positioned after the draws, for
//     execution. The only serial step, a greedy list schedule, then
//     groups the operations into waves with pairwise-disjoint participant
//     sets. Waves execute in sequence, the operations inside a wave in
//     parallel on any number of workers. Because a balancing operation
//     reads and writes only its δ+1 participants plus caller-owned
//     scratch, and any two conflicting
//     operations land in distinct waves in canonical order, wave execution
//     is state-identical to executing all operations serially in canonical
//     order. Each operation re-checks its factor-f trigger at execution
//     (an earlier operation in the same barrier may have balanced the
//     initiator already), exactly as the serial canonical order would.
//  3. Settlement pass (serial). Deferred consumes — those needing marker
//     settlement, which can cascade into class recovery and further
//     balancing — resolve in canonical order on a per-tick settle stream
//     through the full sequential consume path.
//  4. Statistics. On sampled ticks each shard folds its loads into a
//     stats.LoadPartial (parallel), and the partials merge in a
//     fixed-shape binary tree reduction — no global O(n) scan on a single
//     goroutine, and exact integer arithmetic so the merged min/max/avg/
//     spread equal the sequential scan's.
//
// Determinism: every stream is keyed by (Seed, run, kind, shard|tick|op)
// through rng.Partition, the canonical order is a pure function of shard
// contents, wave execution is equivalent to serial canonical execution,
// and per-worker Metrics fold by integer addition. Results are therefore
// bit-identical for a fixed (Seed, Shards) pair under any Workers value
// and any goroutine schedule — verified by TestShardedWorkerInvariance
// and the race gate. Changing Shards re-keys the per-shard streams and
// yields a different (equally valid) sample path; agreement with the
// sequential engine is statistical, verified by differential test.
package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"lmbalance/internal/core"
	"lmbalance/internal/rng"
	"lmbalance/internal/stats"
	"lmbalance/internal/workload"
)

// defaultWorkers is the worker count when Config.Workers is 0.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// shardState is one shard's driving state: its Lane view, its private
// streams, its iteration order, and its mailbox of deferred operations.
type shardState struct {
	lane     *core.Lane
	orderRNG *rng.RNG // per-tick local order shuffles
	stepRNG  *rng.RNG // workload draws + processor-local balancer choices
	order    []int    // local indices stepped each tick (active subset for Sparse patterns)
	triggers []int    // local indices with a pending factor-f initiation
	settles  []int    // local indices with a consume deferred to settlement
}

// shardedEngine drives one run of the sharded engine.
type shardedEngine struct {
	cfg     Config
	sys     *core.System
	pattern workload.Pattern
	part    rng.Partition
	shards  []shardState
	active  []int // shards with a non-empty step order
	workers int
	delta   int

	// Barrier planning state, reused across ticks.
	ops        []int     // global initiator of op k, canonical order
	opRNG      []rng.RNG // op k's private stream, positioned after its partner draws
	opPartners [][]int   // op k's partners, views into partnerBuf
	partnerBuf []int     // δ slots per op
	opWave     []int32   // wave assigned to op k
	opOrder    []int     // op indices bucketed by wave
	waveStart  []int     // opOrder[waveStart[w-1]:waveStart[w]] is wave w
	waveFill   []int
	lastWave   []int32 // per-processor last wave stamp (reset via touched)
	touched    []int

	settleRNG rng.RNG // the tick's settlement stream

	// Per-worker execution state.
	scratches []*core.Scratch
	workerMet []core.Metrics

	// Statistics state.
	partials  []stats.LoadPartial
	reduceBuf []stats.LoadPartial
}

// shardedOneRun executes one run on the sharded engine.
func shardedOneRun(cfg Config, run int) runResult {
	stride := cfg.statsStride()
	out := runResult{
		avg:       stats.NewSeriesStride(cfg.Steps, stride),
		min:       stats.NewSeriesStride(cfg.Steps, stride),
		max:       stats.NewSeriesStride(cfg.Steps, stride),
		spread:    stats.NewSeriesStride(cfg.Steps, stride),
		snapshots: make(map[int][]float64, len(cfg.SnapshotAt)),
	}
	// All streams key off (Seed, run) through a Partition: shard s obtains
	// its streams from (kind, s) locally, with no coordination and no
	// dependence on goroutine schedule — the anchor of the worker-count
	// invariance.
	part := rng.NewPartition(rng.Mix64(cfg.Seed, uint64(run)))
	bal, err := cfg.NewBalancer(run, part.Stream(rng.StreamBalancer, 0))
	if err != nil {
		out.err = err
		return out
	}
	sys, ok := bal.(*core.System)
	if !ok {
		out.err = fmt.Errorf("sharded engine requires a *core.System balancer, got %T", bal)
		return out
	}
	if sys.N() != cfg.N {
		out.err = fmt.Errorf("balancer built for %d processors, config says %d", sys.N(), cfg.N)
		return out
	}
	pattern, err := cfg.NewPattern(run, part.Stream(rng.StreamPattern, 0))
	if err != nil {
		out.err = err
		return out
	}

	e := newShardedEngine(cfg, sys, pattern, part)
	snapshotWanted := make(map[int]bool, len(cfg.SnapshotAt))
	for _, t := range cfg.SnapshotAt {
		snapshotWanted[t] = true
	}

	for t := 0; t < cfg.Steps; t++ {
		e.stepPhase(t)
		e.resolveTriggers(t)
		e.resolveSettles(t)
		if out.avg.Sampled(t) {
			p := e.scanLoads()
			out.avg.Add(t, p.Mean())
			out.min.Add(t, float64(p.Min))
			out.max.Add(t, float64(p.Max))
			out.spread.Add(t, float64(p.Max-p.Min))
		}
		if snapshotWanted[t] {
			snap := make([]float64, cfg.N)
			for i := 0; i < cfg.N; i++ {
				snap[i] = float64(sys.Load(i))
			}
			out.snapshots[t] = snap
		}
		if cfg.Observe != nil {
			cfg.Observe(run, t, bal)
		}
	}

	e.absorbMetrics()
	out.metrics = sys.Metrics()
	if err := sys.CheckInvariants(); err != nil {
		out.err = fmt.Errorf("invariant violation after run: %w", err)
		return out
	}
	out.finalLoads = make([]float64, cfg.N)
	for i := 0; i < cfg.N; i++ {
		out.finalLoads[i] = float64(sys.Load(i))
	}
	return out
}

// newShardedEngine partitions the system into cfg.Shards contiguous lanes
// and sets up streams, mailboxes and worker scratch.
func newShardedEngine(cfg Config, sys *core.System, pattern workload.Pattern, part rng.Partition) *shardedEngine {
	n, S := cfg.N, cfg.Shards
	workers := cfg.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	e := &shardedEngine{
		cfg:      cfg,
		sys:      sys,
		pattern:  pattern,
		part:     part,
		shards:   make([]shardState, S),
		workers:  workers,
		delta:    sys.Params().Delta,
		lastWave: make([]int32, n),
		partials: make([]stats.LoadPartial, S),
	}
	// Sparse patterns confine activity to a fixed processor set: only
	// those processors are stepped, and shards owning none are skipped
	// entirely. Idle processors draw no RNG state under the Sparse
	// contract, so the restriction leaves every stream untouched.
	var activeProcs []int
	if sp, ok := pattern.(workload.Sparse); ok {
		activeProcs = sp.ActiveProcs()
	}
	for s := 0; s < S; s++ {
		lo, hi := s*n/S, (s+1)*n/S
		sh := &e.shards[s]
		sh.lane = sys.NewLane(lo, hi)
		sh.orderRNG = part.Stream(rng.StreamOrder, uint64(s))
		sh.stepRNG = part.Stream(rng.StreamStep, uint64(s))
		if activeProcs == nil {
			sh.order = make([]int, hi-lo)
			for i := range sh.order {
				sh.order[i] = i
			}
		} else {
			for _, p := range activeProcs {
				if p >= lo && p < hi {
					sh.order = append(sh.order, p-lo)
				}
			}
		}
		if len(sh.order) > 0 {
			e.active = append(e.active, s)
		}
	}
	for w := 0; w < workers; w++ {
		e.scratches = append(e.scratches, sys.NewScratch())
	}
	e.workerMet = make([]core.Metrics, workers)
	return e
}

// parallelFor runs fn(worker, i) for i in [0, n) across the engine's
// workers and returns when all items are done. Workers claim contiguous
// chunks of about n/(8·workers) items from a shared atomic counter: one
// atomic add per chunk instead of per item, while eight chunks per worker
// still even out items of uneven cost. The calling goroutine is worker 0;
// with one worker (or one item) everything runs inline. The item→worker
// assignment is schedule-dependent; callers must ensure items are
// independent and per-worker state folds commutatively.
func (e *shardedEngine) parallelFor(n int, fn func(worker, i int)) {
	w := min(e.workers, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	chunk := max(1, n/(8*w))
	var next atomic.Int64
	run := func(worker int) {
		for {
			end := int(next.Add(int64(chunk)))
			start := end - chunk
			if start >= n {
				return
			}
			for i := start; i < min(end, n); i++ {
				fn(worker, i)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for k := 1; k < w; k++ {
		go func(worker int) {
			defer wg.Done()
			run(worker)
		}(k)
	}
	run(0)
	wg.Wait()
}

// stepPhase drives every active shard through tick t. Shards touch only
// their own lane, streams and mailboxes, so the phase is race-free for
// any worker assignment.
func (e *shardedEngine) stepPhase(t int) {
	e.parallelFor(len(e.active), func(_, k int) {
		sh := &e.shards[e.active[k]]
		if len(sh.order) > 1 {
			// Local order shuffle, same rationale as the sequential
			// engine's global shuffle (no systematic early-index bias).
			sh.orderRNG.ShuffleInts(sh.order)
		}
		for _, li := range sh.order {
			switch e.pattern.Step(sh.lane.Global(li), t, sh.stepRNG) {
			case workload.Generate:
				if sh.lane.Generate(li, sh.stepRNG) {
					sh.triggers = append(sh.triggers, li)
				}
			case workload.Consume:
				e.consumeLocal(sh, li)
			case workload.GenerateAndConsume:
				if sh.lane.Generate(li, sh.stepRNG) {
					sh.triggers = append(sh.triggers, li)
				}
				e.consumeLocal(sh, li)
			}
		}
		// Canonical mailbox order: shard-local index ascending,
		// independent of the shuffled arrival order. Each shard sorts its
		// own mailboxes here so the barrier's serial drain only copies.
		slices.Sort(sh.triggers)
		slices.Sort(sh.settles)
	})
}

func (e *shardedEngine) consumeLocal(sh *shardState, li int) {
	_, trigger, settle := sh.lane.Consume(li, sh.stepRNG)
	if trigger {
		sh.triggers = append(sh.triggers, li)
	}
	if settle {
		sh.settles = append(sh.settles, li)
	}
}

// resolveTriggers drains the trigger mailboxes in canonical order, plans
// the conflict-free waves, and executes them.
func (e *shardedEngine) resolveTriggers(t int) {
	e.ops = e.ops[:0]
	for s := range e.shards {
		sh := &e.shards[s]
		if len(sh.triggers) == 0 {
			continue
		}
		// Canonical initiator order: (shard, local index); the step phase
		// sorted each mailbox. A processor that triggered on both its
		// generate and its consume appears twice; the execution-time
		// re-check makes the duplicate a no-op when the first operation
		// already balanced it.
		for _, li := range sh.triggers {
			e.ops = append(e.ops, sh.lane.Global(li))
		}
		sh.triggers = sh.triggers[:0]
	}
	K := len(e.ops)
	if K == 0 {
		return
	}
	e.drawPartners(t, K)
	maxWave := e.planWaves(K)
	e.bucketByWave(K, maxWave)
	for w := 1; w <= maxWave; w++ {
		waveOps := e.opOrder[e.waveStart[w-1]:e.waveStart[w]]
		e.parallelFor(len(waveOps), func(worker, i int) {
			e.execOp(worker, waveOps[i])
		})
	}
}

// drawPartners seeds every operation's private stream and draws its
// partners from it, in parallel: each operation writes only its own
// stream and partner slots. Buffers grow with the operation count and are
// reused across ticks, so a steady-state barrier allocates nothing.
func (e *shardedEngine) drawPartners(t, K int) {
	d := e.delta
	e.opRNG = slices.Grow(e.opRNG[:0], K)[:K]
	e.opPartners = slices.Grow(e.opPartners[:0], K)[:K]
	e.partnerBuf = slices.Grow(e.partnerBuf[:0], K*d)[:K*d]
	e.parallelFor(K, func(_, k int) {
		r := &e.opRNG[k]
		r.Reseed(e.part.OpSeed(uint64(t), uint64(k)))
		e.opPartners[k] = e.sys.SelectPartners(e.ops[k], r, e.partnerBuf[k*d:k*d:k*d+d])
	})
}

// planWaves assigns operations to waves by greedy list scheduling over the
// drawn partner sets: an operation lands one wave after the latest earlier
// operation it shares a participant with. Within a wave all participant
// sets are pairwise disjoint. Returns the number of waves.
func (e *shardedEngine) planWaves(K int) int {
	if cap(e.opWave) < K {
		e.opWave = make([]int32, K)
	}
	e.opWave = e.opWave[:K]
	maxWave := int32(0)
	for k, init := range e.ops {
		partners := e.opPartners[k]
		w := e.lastWave[init]
		for _, p := range partners {
			if e.lastWave[p] > w {
				w = e.lastWave[p]
			}
		}
		w++
		e.stamp(init, w)
		for _, p := range partners {
			e.stamp(p, w)
		}
		e.opWave[k] = w
		if w > maxWave {
			maxWave = w
		}
	}
	for _, p := range e.touched {
		e.lastWave[p] = 0
	}
	e.touched = e.touched[:0]
	return int(maxWave)
}

func (e *shardedEngine) stamp(p int, w int32) {
	if e.lastWave[p] == 0 {
		e.touched = append(e.touched, p)
	}
	e.lastWave[p] = w
}

// bucketByWave counting-sorts the op indices by wave, stable in canonical
// order, into e.opOrder/e.waveStart.
func (e *shardedEngine) bucketByWave(K, maxWave int) {
	if cap(e.waveStart) < maxWave+1 {
		e.waveStart = make([]int, maxWave+1)
	}
	e.waveStart = e.waveStart[:maxWave+1]
	for i := range e.waveStart {
		e.waveStart[i] = 0
	}
	for _, w := range e.opWave {
		e.waveStart[w]++
	}
	// waveStart[w] becomes the start offset of wave w+1's bucket.
	sum := 0
	for w := 1; w <= maxWave; w++ {
		c := e.waveStart[w]
		e.waveStart[w-1] = sum
		sum += c
	}
	e.waveStart[maxWave] = sum
	if cap(e.opOrder) < K {
		e.opOrder = make([]int, K)
	}
	e.opOrder = e.opOrder[:K]
	e.waveFill = append(e.waveFill[:0], e.waveStart[:maxWave]...)
	for k := 0; k < K; k++ {
		w := int(e.opWave[k])
		e.opOrder[e.waveFill[w-1]] = k
		e.waveFill[w-1]++
	}
}

// execOp executes deferred operation k on the given worker with the
// partners the plan pass drew; the redistribution continues the
// operation's private stream where the partner draws left it.
func (e *shardedEngine) execOp(worker, k int) {
	init := e.ops[k]
	// Re-check the factor-f condition: an earlier wave (or an earlier
	// operation in canonical order that shared this initiator) may have
	// balanced init already. Operations in the same wave cannot affect
	// init, so this check reads exactly the state the serial canonical
	// execution would.
	if !e.sys.TriggerPending(init) {
		return
	}
	e.sys.BalanceWithPartners(init, e.opPartners[k], &e.opRNG[k], e.scratches[worker], &e.workerMet[worker])
}

// resolveSettles completes the consumes deferred for marker settlement,
// serially in canonical order on the tick's settle stream. Settlement can
// cascade (class recovery, further balancing operations on arbitrary
// processors), which is why it stays serial.
func (e *shardedEngine) resolveSettles(t int) {
	e.settleRNG.Reseed(e.part.Seed(rng.StreamSettle, uint64(t)))
	for s := range e.shards {
		sh := &e.shards[s]
		for _, li := range sh.settles {
			e.sys.SettleConsume(sh.lane.Global(li), &e.settleRNG)
		}
		sh.settles = sh.settles[:0]
	}
}

// scanLoads computes the tick's load statistics: per-shard LoadPartials in
// parallel, merged by the fixed-shape tree reduction. All shards are
// scanned (load migrates into inactive shards through balancing).
func (e *shardedEngine) scanLoads() stats.LoadPartial {
	e.parallelFor(len(e.shards), func(_, s int) {
		p := &e.partials[s]
		*p = stats.LoadPartial{}
		lane := e.shards[s].lane
		for li := 0; li < lane.Len(); li++ {
			p.Observe(lane.Load(li))
		}
	})
	e.reduceBuf = append(e.reduceBuf[:0], e.partials...)
	return stats.ReduceLoadPartials(e.reduceBuf)
}

// absorbMetrics folds every lane's and worker's counters into the System
// so Metrics and CheckInvariants see run totals.
func (e *shardedEngine) absorbMetrics() {
	for s := range e.shards {
		e.sys.AbsorbMetrics(e.shards[s].lane.TakeMetrics())
	}
	for w := range e.workerMet {
		e.sys.AbsorbMetrics(e.workerMet[w])
		e.workerMet[w] = core.Metrics{}
	}
}
