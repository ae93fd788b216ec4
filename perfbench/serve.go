package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"lmbalance/internal/cluster"
	"lmbalance/internal/obs"
	"lmbalance/internal/rng"
	"lmbalance/internal/serve"
	"lmbalance/internal/wire"
	"lmbalance/internal/workload"
)

// serveParams fixes one serving workload: an n-node TCP cluster whose
// client traffic enters only through nodes 0..frontEnds-1, one client
// connection each, with bounded-Pareto job demands.
type serveParams struct {
	nodes, frontEnds, delta int
	f, conP                 float64
	stepInterval            time.Duration
	demand                  workload.BoundedPareto
	// rate > 0 runs an open loop at rate jobs/s summed over the
	// connections; rate == 0 runs a closed loop with window jobs
	// outstanding per connection.
	rate   float64
	window int
	warmup time.Duration
	setups int // cluster bring-ups timed for setup_s
	// instances is the number of fresh clusters the window is split
	// over (see serveRun).
	instances int
}

const (
	// drainTimeout is how long submitted jobs may take to finish after
	// the window; jobs still missing then count as failed.
	drainTimeout = 20 * time.Second
	// lateBound rejects an open-loop run whose generator sent its p99
	// job later than this after the job's scheduled time.
	lateBound = 20 * time.Millisecond
)

func baseServe() serveParams {
	return serveParams{
		nodes: 8, frontEnds: 2, delta: 2, f: 1.2, conP: 1,
		stepInterval: 200 * time.Microsecond,
		demand:       workload.BoundedPareto{Alpha: 1.5, Lo: 1, Hi: 100},
		warmup:       time.Second,
		setups:       15,
		instances:    4,
	}
}

func runServeHot(cfg runConfig) (*outcome, error) {
	p := baseServe()
	p.rate = 4500
	return runServe(p, cfg)
}

func runServeSaturate(cfg runConfig) (*outcome, error) {
	p := baseServe()
	p.window = 64
	return runServe(p, cfg)
}

// serveCluster is one running serving cluster built from public parts:
// TCP transports (optionally tapped), a serve.Server per node, and the
// cluster nodes in serve mode.
type serveCluster struct {
	p       serveParams
	servers []*serve.Server
	reg     *obs.Registry // traced only
	wire    *wireTrace    // traced only
	stop    chan struct{}
	res     chan clusterOutcome
}

type clusterOutcome struct {
	res *cluster.Result
	err error
}

func startCluster(p serveParams, seed uint64, traced bool) (*serveCluster, error) {
	ts, err := wire.NewLocalCluster(p.nodes)
	if err != nil {
		return nil, err
	}
	sc := &serveCluster{p: p, stop: make(chan struct{}), res: make(chan clusterOutcome, 1)}
	transports := make([]wire.Transport, p.nodes)
	for i, t := range ts {
		transports[i] = t
	}
	if traced {
		sc.reg = obs.NewRegistry()
		sc.wire = newWireTrace(p.nodes)
		for i := range transports {
			transports[i] = sc.wire.tap(i, ts[i])
		}
	}
	hooks := make([]*cluster.ServeHooks, p.nodes)
	for i := range hooks {
		s, err := serve.NewServer(i, "127.0.0.1:0", sc.reg)
		if err != nil {
			sc.closeServers()
			for _, t := range transports {
				t.Close()
			}
			return nil, err
		}
		sc.servers = append(sc.servers, s)
		hooks[i] = s.Hooks()
	}
	nodes, err := cluster.NewNodes(cluster.ClusterConfig{
		N: p.nodes, Delta: p.delta, F: p.f,
		Steps: 1 << 30, // the run ends through Stop
		GenP:  []float64{0}, ConP: []float64{p.conP},
		Seed: seed, Obs: sc.reg,
		StepInterval: p.stepInterval,
		Stop:         sc.stop,
		ServePerNode: hooks,
	}, transports)
	if err != nil {
		sc.closeServers()
		return nil, err
	}
	go func() {
		res, err := cluster.RunNodes(nodes)
		sc.res <- clusterOutcome{res, err}
	}()
	return sc, nil
}

func (sc *serveCluster) closeServers() {
	for _, s := range sc.servers {
		s.Close()
	}
}

func (sc *serveCluster) frontEndAddrs() []string {
	out := make([]string, sc.p.frontEnds)
	for i := range out {
		out[i] = sc.servers[i].Addr()
	}
	return out
}

func (sc *serveCluster) serverStats() serve.Stats {
	var t serve.Stats
	for _, s := range sc.servers {
		st := s.Stats()
		t.JobsAccepted += st.JobsAccepted
		t.JobsCompleted += st.JobsCompleted
		t.UnitsAccepted += st.UnitsAccepted
		t.UnitsCompleted += st.UnitsCompleted
		t.DonesDropped += st.DonesDropped
	}
	return t
}

// shutdown stops the nodes through the two-phase shutdown, closes the
// front-ends and checks packet and job conservation.
func (sc *serveCluster) shutdown() (*cluster.Result, error) {
	close(sc.stop)
	out := <-sc.res
	sc.closeServers()
	if out.err != nil {
		return nil, out.err
	}
	if !out.res.Conserved() {
		return nil, fmt.Errorf("packet conservation violated")
	}
	if !out.res.JobsConserved() {
		return nil, fmt.Errorf("job conservation violated: ingested %d, done %d, held %d",
			out.res.Ingested(), out.res.UnitsDone(), out.res.RecordsHeld())
	}
	return out.res, nil
}

// timeSetup brings a cluster up and connects the clients, times it,
// and tears it down again; the benchmark reports the median of several.
func timeSetup(p serveParams, seed uint64) (float64, error) {
	t0 := time.Now()
	sc, err := startCluster(p, seed, false)
	if err != nil {
		return 0, err
	}
	conns, err := dialAll(sc.frontEndAddrs())
	secs := time.Since(t0).Seconds()
	for _, c := range conns {
		c.close()
	}
	if _, serr := sc.shutdown(); err == nil {
		err = serr
	}
	return secs, err
}

// serveGCPercent is the GOGC the serving workloads run at. The eight
// nodes and their clients share one process and one garbage collector,
// so every collection pauses the whole cluster at once — a correlation
// a deployment of one node per process does not have, and on two cores
// the largest source of run-to-run spread in the serving tail.
// Collecting a quarter as often keeps it small.
const serveGCPercent = 400

func runServe(p serveParams, cfg runConfig) (*outcome, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(serveGCPercent))
	if cfg.smoke {
		p.warmup, p.setups, p.instances = 200*time.Millisecond, 2, 1
	}
	var setups []float64
	for i := 0; i < p.setups; i++ {
		s, err := timeSetup(p, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, s)
	}

	window := time.Duration(cfg.seconds * float64(time.Second))
	r := &serveRun{p: p, part: window / time.Duration(p.instances)}
	if cfg.traced {
		r.layer = newLayerAcc()
	}
	o := &outcome{}
	for i := 0; i < p.instances; i++ {
		err := r.instance(rng.Mix64(cfg.seed, uint64(i)), i, cfg.traced)
		o.attempted, o.failed = r.submitted, r.submitted-r.completed
		if err != nil {
			return o, fmt.Errorf("instance %d: %w", i, err)
		}
	}
	late := quantile(sortedCopy(r.late), 0.99)
	if p.rate > 0 && late > lateBound.Seconds()*1e3 {
		return o, fmt.Errorf("load generator ran late: p99 %.2fms exceeds the %v bound, the run measures the generator, not the cluster", late, lateBound)
	}
	perSub := make([]float64, subWindows)
	for _, at := range r.doneAt {
		perSub[min(int(at/window.Seconds()*subWindows), subWindows-1)]++
	}
	throughput := median(perSub) * subWindows / window.Seconds()
	o.checks = append(o.checks,
		fmt.Sprintf("%d cluster instances: packet and job conservation exact (ingested %d units = done %d + held %d)", p.instances, r.ingested, r.unitsDone, r.held),
		fmt.Sprintf("every job completed or counted failed (%d submitted, %d completed)", r.submitted, r.completed))
	o.e2e = e2eMetrics(r.sojourn, window.Seconds(), latencySpec{0.99, subWindows}, throughput, len(r.doneAt), r.heapMB, setups)
	o.info = []metric{{"jobs_failed_frac", "frac", float64(o.failed) / float64(max(o.attempted, 1)), int(o.attempted)}}
	if p.rate > 0 {
		o.info = append(o.info, metric{"loadgen.late_p99_ms", "ms", late, len(r.late)})
	}
	if !cfg.traced {
		return o, checkNames(o)
	}
	layer, err := r.layer.metrics(p, window)
	if err != nil {
		return o, err
	}
	o.layer = layer
	o.checks = append(o.checks, "registry protocol counters agree with the nodes' own accounting; every wire receipt matched its send")
	return o, checkNames(o)
}

// serveRun accumulates the cluster instances of one measured window.
// The window is cut into equal parts, each measured on a fresh cluster
// after its own warm-up, so one instance's luck (which goroutines share
// a core, how the first balancing operations fall) is one part of the
// result rather than all of it.
type serveRun struct {
	p                    serveParams
	part                 time.Duration
	submitted, completed int64
	ingested, unitsDone  int64
	held                 int64
	sojourn              []latSample // at: seconds into the whole window
	doneAt               []float64   // completions inside the window, seconds into it
	late                 []float64   // ms the generator sent each window job late
	heapMB               []float64   // live heap per collection
	layer                *layerAcc   // traced only
}

func (r *serveRun) instance(seed uint64, i int, traced bool) error {
	p := r.p
	sc, err := startCluster(p, seed, traced)
	if err != nil {
		return err
	}
	conns, err := dialAll(sc.frontEndAddrs())
	if err != nil {
		sc.shutdown()
		return err
	}
	lg := newLoadgen(p, seed, conns, r.part)
	heap := startHeapSampler()
	lg.start()

	// The traced per-layer counters are deltas over exactly the
	// measured part of the instance.
	time.Sleep(time.Until(lg.base.Add(p.warmup)))
	var before *layerSnap
	if traced {
		sc.wire.recording.Store(true)
		before = sc.snap()
	}
	time.Sleep(time.Until(lg.base.Add(p.warmup + r.part)))
	var after *layerSnap
	if traced {
		after = sc.snap()
		sc.wire.recording.Store(false)
	}
	lg.finishSending()
	drained := lg.waitDone(drainTimeout)
	r.heapMB = append(r.heapMB, heap.stopMB()...)
	for _, c := range conns {
		c.close()
	}
	res, err := sc.shutdown()
	if err != nil {
		return err
	}

	st := lg.stats(p.warmup, r.part)
	r.submitted += st.submitted
	r.completed += st.completed
	r.ingested += res.Ingested()
	r.unitsDone += res.UnitsDone()
	r.held += res.RecordsHeld()
	srv := sc.serverStats()
	if srv.JobsAccepted != st.submitted {
		return fmt.Errorf("servers accepted %d jobs, clients submitted %d", srv.JobsAccepted, st.submitted)
	}
	if drained && srv.JobsCompleted != srv.JobsAccepted {
		return fmt.Errorf("clients saw every job done but servers completed %d of %d", srv.JobsCompleted, srv.JobsAccepted)
	}
	if st.dupDones > 0 || st.badTags > 0 {
		return fmt.Errorf("client saw %d duplicate and %d unknown completions", st.dupDones, st.badTags)
	}
	offset := float64(i) * r.part.Seconds()
	for _, l := range st.sojourn {
		r.sojourn = append(r.sojourn, latSample{at: l.at + offset, ms: l.ms})
	}
	for _, at := range st.doneAt {
		r.doneAt = append(r.doneAt, at+offset)
	}
	r.late = append(r.late, st.late...)
	if traced {
		return r.layer.add(sc, before, after, res)
	}
	return nil
}
