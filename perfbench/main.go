// Command perfbench is the repository's benchmark: four workloads that
// each drive one or two layers of the system hard, timed from the
// benchmark's own code around public calls into internal/serve,
// internal/cluster, internal/wire, internal/sim, internal/core and
// internal/pool.
//
//	perfbench --workload serve-hot --seed 1 --seconds 10 --trace 0
//	perfbench --workload all --seconds 4
//
// With --trace 0 a run measures the end-to-end metrics with tracing off.
// With --trace 1 it measures the same window twice, half the seconds
// untraced and half traced, and reports the per-layer metrics of the
// traced half plus the tracing overhead on every end-to-end metric.
// Every run is gated on correctness (conservation, determinism
// fingerprints, invariants, checksums) before any metric is printed.
//
// The human-readable report goes to standard output first; the last
// line is one JSON object {"correct", "attempted", "failed", "metrics"}.
// See README.md for the workloads, metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64 // length of the measured window
	traced  bool
	smoke   bool // tiny sizes, for the benchmark's own smoke test
}

// metric is one reported number with its unit and the number of
// samples it was computed from (1 for a single measurement or count).
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
}

// outcome is one measured window of one workload. A workload returns
// an error instead of an outcome when any correctness check fails.
type outcome struct {
	attempted, failed int64
	e2e               []metric // end-to-end metrics, every workload the same names
	layer             []metric // per-layer metrics (traced windows only)
	info              []metric // printed in the report, not in the JSON line
	checks            []string // correctness checks that passed
}

type workloadDef struct {
	name string
	run  func(runConfig) (*outcome, error)
}

var workloads = []workloadDef{
	{"serve-hot", runServeHot},
	{"serve-saturate", runServeSaturate},
	{"sim-large", runSimLarge},
	{"pool-tree", runPoolTree},
}

// e2eNames are the end-to-end metrics every workload reports, in order.
var e2eNames = []string{"latency_p50_ms", "latency_tail_ms", "throughput_per_s", "live_heap_mb", "setup_s"}

// layerNames are the per-layer metrics every traced run reports. A
// layer a workload leaves idle reads 0 with 0 samples.
var layerNames = []struct{ name, unit string }{
	{"wire.delivery_p50_us", "us"}, {"wire.delivery_p99_us", "us"},
	{"wire.frames_sent", "count"}, {"wire.bytes_per_frame", "B"},
	{"wire.encode_ns", "ns"}, {"wire.decode_ns", "ns"},
	{"cluster.ops_initiated", "count"}, {"cluster.ops_completed", "count"},
	{"cluster.op_success_ratio", "frac"},
	{"cluster.aborts_peer_frozen", "count"}, {"cluster.aborts_timeout", "count"},
	{"cluster.collect_p99_ms", "ms"}, {"cluster.msgs_per_completed_op", "count"},
	{"cluster.cold_served_frac", "frac"}, {"cluster.service_util", "frac"},
	{"cluster.queue_p50_ms", "ms"}, {"cluster.queue_p99_ms", "ms"},
	{"cluster.transfer_p99_ms", "ms"}, {"cluster.hops_p99", "count"},
	{"serve.ingest_wait_p50_ms", "ms"}, {"serve.ingest_wait_p99_ms", "ms"},
	{"serve.ingest_hwm", "count"}, {"serve.dones_dropped", "count"},
	{"core.balance_ops", "count"}, {"core.migrations", "count"},
	{"core.total_borrow", "count"}, {"core.nnz_final", "count"},
	{"sim.step_p50_ms", "ms"}, {"sim.step_p99_ms", "ms"},
	{"pool.balances", "count"}, {"pool.migrated_per_balance", "count"},
	{"pool.exec_spread_frac", "frac"}, {"pool.task_wait_p99_us", "us"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run and the tracing overhead")
	smoke := fs.Bool("smoke", false, "tiny sizes, for checking the benchmark itself")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0 and --trace 0 or 1")
		return 2
	}
	var selected []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}

	fmt.Fprintln(stdout, header(*name, *seed, *seconds, *trace))
	res := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range selected {
		cfg := runConfig{seed: *seed, seconds: *seconds, smoke: *smoke}
		var (
			ms  []metric
			out *outcome
			err error
		)
		if *trace == 0 {
			out, err = w.run(cfg)
			if err == nil {
				ms = out.e2e
				report(stdout, w.name+" (untraced)", out)
			}
		} else {
			ms, out, err = runTraced(w, cfg, stdout)
		}
		if out != nil {
			res.Attempted += out.attempted
			res.Failed += out.failed
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			res.Correct = false
			res.Metrics = map[string]jsonMetric{}
			printJSON(stdout, res)
			return 1
		}
		for _, m := range ms {
			key := m.name
			if len(selected) > 1 {
				key = w.name + "/" + m.name
			}
			res.Metrics[key] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	printJSON(stdout, res)
	return 0
}

// runTraced measures half the window untraced and half traced, and
// returns the per-layer metrics plus the relative tracing overhead on
// every end-to-end metric.
func runTraced(w workloadDef, cfg runConfig, stdout io.Writer) ([]metric, *outcome, error) {
	cfg.seconds /= 2
	plain, err := w.run(cfg)
	if err != nil {
		return nil, plain, err
	}
	report(stdout, w.name+" (untraced half)", plain)
	cfg.traced = true
	traced, err := w.run(cfg)
	if err != nil {
		return nil, traced, err
	}
	report(stdout, w.name+" (traced half)", traced)
	got := map[string]metric{}
	for _, m := range traced.layer {
		got[m.name] = m
	}
	var out []metric
	for _, l := range layerNames {
		m, ok := got[l.name]
		if !ok {
			m = metric{name: l.name, unit: l.unit}
		}
		out = append(out, m)
	}
	base := map[string]metric{}
	for _, m := range plain.e2e {
		base[m.name] = m
	}
	fmt.Fprintf(stdout, "\n%s tracing overhead (traced / untraced - 1)\n", w.name)
	for _, m := range traced.e2e {
		b := base[m.name]
		ov := 0.0
		if b.value != 0 {
			ov = m.value/b.value - 1
		}
		o := metric{name: "trace.overhead." + m.name, unit: "frac", value: ov, samples: m.samples}
		fmt.Fprintf(stdout, "  %-36s %+.4f  (untraced %.6g, traced %.6g %s)\n", o.name, ov, b.value, m.value, m.unit)
		out = append(out, o)
	}
	sum := &outcome{attempted: plain.attempted + traced.attempted, failed: plain.failed + traced.failed}
	return out, sum, nil
}

// header is the run header: what ran, on what, built from which commit.
func header(name string, seed uint64, seconds float64, trace int) string {
	host, _ := os.Hostname()
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("perfbench workload=%s seed=%d seconds=%g trace=%d\nmachine=%s/%s host=%s nproc=%d GOMAXPROCS=%d go=%s commit=%s",
		name, seed, seconds, trace, runtime.GOOS, runtime.GOARCH, host,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// report prints one outcome as a table: name, value, unit, samples.
func report(w io.Writer, title string, o *outcome) {
	fmt.Fprintf(w, "\n%s: attempted %d, failed %d\n", title, o.attempted, o.failed)
	for _, c := range o.checks {
		fmt.Fprintf(w, "  check ok: %s\n", c)
	}
	for _, group := range [][]metric{o.e2e, o.layer, o.info} {
		for _, m := range group {
			fmt.Fprintf(w, "  %-36s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func printJSON(w io.Writer, r result) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of plain floats and strings always marshals
	}
	fmt.Fprintln(w, string(b))
}

// checkNames verifies an outcome reports exactly the end-to-end names,
// in order, so a workload cannot silently drop a metric.
func checkNames(o *outcome) error {
	var got []string
	for _, m := range o.e2e {
		got = append(got, m.name)
	}
	if strings.Join(got, ",") != strings.Join(e2eNames, ",") {
		return fmt.Errorf("end-to-end metrics %v, want %v", got, e2eNames)
	}
	return nil
}
