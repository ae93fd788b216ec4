package main

import (
	"fmt"
	"time"

	"lmbalance/internal/cluster"
	"lmbalance/internal/obs"
	"lmbalance/internal/serve"
)

// Registry names of the cluster's protocol counters and phase
// histograms (internal/cluster/metrics.go). The traced run cross-checks
// the counters against the nodes' own Stats, so a renamed metric fails
// the run instead of silently reading zero.
const (
	initiatedMetric = "cluster_protocols_initiated_total"
	completedMetric = "cluster_protocols_completed_total"
)

func collectMetric() string {
	return fmt.Sprintf("cluster_phase_seconds{phase=%q}", cluster.PhaseCollect)
}

func consumedMetric(node int) string {
	return fmt.Sprintf(`cluster_node_consumed_total{node="%d"}`, node)
}

func ingestHWMMetric(node int) string { return fmt.Sprintf(`serve_ingest_hwm{node="%d"}`, node) }

// histSnap is a histogram's bucket counts at one instant.
type histSnap struct {
	bounds []float64
	counts []int64
}

// layerSnap is the registry and server state at one instant of the
// traced window; the per-layer metrics are differences of two snaps.
type layerSnap struct {
	counters map[string]int64
	hists    map[string]histSnap
	dropped  int64
}

func (sc *serveCluster) histNames() map[string][]float64 {
	names := map[string][]float64{collectMetric(): obs.LatencyBuckets}
	for i := 0; i < sc.p.nodes; i++ {
		for _, comp := range []string{"queue", "transfer", "ingest_wait"} {
			names[serve.JourneyMetric(i, comp)] = obs.SojournBuckets
		}
		names[serve.HopsMetric(i)] = serve.HopBuckets
	}
	return names
}

func (sc *serveCluster) counterNames() []string {
	names := []string{initiatedMetric, completedMetric,
		cluster.AbortMetric(cluster.AbortPeerFrozen), cluster.AbortMetric(cluster.AbortTimeout)}
	for i := 0; i < sc.p.nodes; i++ {
		names = append(names, consumedMetric(i))
	}
	return names
}

func (sc *serveCluster) snap() *layerSnap {
	s := &layerSnap{counters: map[string]int64{}, hists: map[string]histSnap{}}
	for _, name := range sc.counterNames() {
		s.counters[name] = sc.reg.Counter(name).Value()
	}
	for name, bounds := range sc.histNames() {
		b, c := sc.reg.Histogram(name, bounds).Buckets()
		s.hists[name] = histSnap{b, c}
	}
	s.dropped = sc.serverStats().DonesDropped
	return s
}

// layerAcc sums the traced windows of several cluster instances.
type layerAcc struct {
	counters  map[string]int64
	hists     map[string]histSnap // bucket counts inside the windows
	dropped   int64
	hwm       int64
	frames    int64
	bytes     int64
	delivery  []float64
	codec     []byte // frames kept for timing the codec
	unmatched int64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{counters: map[string]int64{}, hists: map[string]histSnap{}}
}

// add accumulates one instance's traced window, after checking the
// registry's protocol counters against the nodes' own Stats.
func (a *layerAcc) add(sc *serveCluster, before, after *layerSnap, res *cluster.Result) error {
	var initiated, completed int64
	for _, n := range res.Nodes {
		initiated += n.Initiated
		completed += n.Completed
	}
	if got := sc.reg.Counter(initiatedMetric).Value(); got != initiated {
		return fmt.Errorf("registry counts %d initiated operations, nodes %d", got, initiated)
	}
	if got := sc.reg.Counter(completedMetric).Value(); got != completed {
		return fmt.Errorf("registry counts %d completed operations, nodes %d", got, completed)
	}
	w := sc.wire
	if w.unmatched != 0 {
		return fmt.Errorf("wire tap: %d receipts matched no send", w.unmatched)
	}
	for name, v := range after.counters {
		a.counters[name] += v - before.counters[name]
	}
	for name, h := range after.hists {
		acc, ok := a.hists[name]
		if !ok {
			acc = histSnap{bounds: h.bounds, counts: make([]int64, len(h.counts))}
			a.hists[name] = acc
		}
		for i := range h.counts {
			acc.counts[i] += h.counts[i] - before.hists[name].counts[i]
		}
	}
	a.dropped += after.dropped - before.dropped
	for i := 0; i < sc.p.nodes; i++ {
		a.hwm = max(a.hwm, sc.reg.Gauge(ingestHWMMetric(i)).Value())
	}
	a.frames += w.frames
	a.bytes += w.bytes
	a.delivery = append(a.delivery, w.delivery...)
	a.codec = append(a.codec, w.sample[:min(len(w.sample), maxSampleBytes-len(a.codec))]...)
	return nil
}

// quantile merges the window bucket counts of histograms sharing bounds
// and returns the q-quantile by linear interpolation inside the bucket
// (the lower bound for the overflow bucket), plus the sample count.
func (a *layerAcc) quantile(names []string, q float64) (float64, int) {
	var bounds []float64
	var counts []int64
	for _, name := range names {
		h := a.hists[name]
		if counts == nil {
			bounds, counts = h.bounds, make([]int64, len(h.counts))
		}
		for i := range h.counts {
			counts[i] += h.counts[i]
		}
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0, 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		cf := float64(c)
		if c > 0 && cum+cf >= rank {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			if i >= len(bounds) {
				return lo, int(total)
			}
			return lo + (bounds[i]-lo)*(rank-cum)/cf, int(total)
		}
		cum += cf
	}
	return bounds[len(bounds)-1], int(total)
}

// metrics derives the wire, cluster and serve per-layer metrics of the
// traced windows, window being their total length.
func (a *layerAcc) metrics(p serveParams, window time.Duration) ([]metric, error) {
	perNode := func(f func(int) string) []string {
		var out []string
		for i := 0; i < p.nodes; i++ {
			out = append(out, f(i))
		}
		return out
	}
	journey := func(comp string) []string {
		return perNode(func(i int) string { return serve.JourneyMetric(i, comp) })
	}
	ms := func(name string, names []string, q float64) metric {
		v, n := a.quantile(names, q)
		return metric{name, "ms", v * 1e3, n}
	}
	var served, cold int64
	for i := 0; i < p.nodes; i++ {
		c := a.counters[consumedMetric(i)]
		served += c
		if i >= p.frontEnds {
			cold += c
		}
	}
	ini, done := a.counters[initiatedMetric], a.counters[completedMetric]
	slots := float64(p.nodes) * window.Seconds() / p.stepInterval.Seconds() * p.conP
	frac := func(x, y int64) float64 {
		if y == 0 {
			return 0
		}
		return float64(x) / float64(y)
	}
	enc, dec, err := codecTiming(a.codec)
	if err != nil {
		return nil, err
	}
	deliv := sortedCopy(a.delivery)
	hops, hopsN := a.quantile(perNode(serve.HopsMetric), 0.99)
	return []metric{
		{"wire.delivery_p50_us", "us", quantile(deliv, 0.5), len(deliv)},
		{"wire.delivery_p99_us", "us", quantile(deliv, 0.99), len(deliv)},
		{"wire.frames_sent", "count", float64(a.frames), 1},
		{"wire.bytes_per_frame", "B", frac(a.bytes, a.frames), int(a.frames)},
		{"wire.encode_ns", "ns", enc, int(a.frames)},
		{"wire.decode_ns", "ns", dec, int(a.frames)},
		{"cluster.ops_initiated", "count", float64(ini), 1},
		{"cluster.ops_completed", "count", float64(done), 1},
		{"cluster.op_success_ratio", "frac", frac(done, ini), int(ini)},
		{"cluster.aborts_peer_frozen", "count", float64(a.counters[cluster.AbortMetric(cluster.AbortPeerFrozen)]), 1},
		{"cluster.aborts_timeout", "count", float64(a.counters[cluster.AbortMetric(cluster.AbortTimeout)]), 1},
		ms("cluster.collect_p99_ms", []string{collectMetric()}, 0.99),
		{"cluster.msgs_per_completed_op", "count", frac(a.frames, done), int(done)},
		{"cluster.cold_served_frac", "frac", frac(cold, served), int(served)},
		{"cluster.service_util", "frac", float64(served) / slots, int(served)},
		ms("cluster.queue_p50_ms", journey("queue"), 0.5),
		ms("cluster.queue_p99_ms", journey("queue"), 0.99),
		ms("cluster.transfer_p99_ms", journey("transfer"), 0.99),
		{"cluster.hops_p99", "count", hops, hopsN},
		ms("serve.ingest_wait_p50_ms", journey("ingest_wait"), 0.5),
		ms("serve.ingest_wait_p99_ms", journey("ingest_wait"), 0.99),
		{"serve.ingest_hwm", "count", float64(a.hwm), p.nodes},
		{"serve.dones_dropped", "count", float64(a.dropped), 1},
	}, nil
}
