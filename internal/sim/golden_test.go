package sim

import (
	"testing"

	"lmbalance/internal/core"
	"lmbalance/internal/rng"
	"lmbalance/internal/topology"
	"lmbalance/internal/workload"
)

// goldenRun is everything a golden sample path pins: the summed core
// counters, the final-tick average load, the final-load variation
// density and the number of nonzero class cells left in the system.
type goldenRun struct {
	metrics core.Metrics
	avg, vd float64
	nnz     int
}

func runGolden(t *testing.T, n, shards, steps int, p core.Params, pat workload.Pattern, seed uint64, workers int) goldenRun {
	t.Helper()
	var sys *core.System
	cfg := Config{
		N: n, Steps: steps, Runs: 1, Seed: seed,
		Shards: shards, Workers: workers, StatsEvery: steps,
		NewBalancer: func(run int, r *rng.RNG) (Balancer, error) {
			s, err := core.NewSystem(n, p, topology.NewGlobal(n), r)
			sys = s
			return s, err
		},
		NewPattern: func(run int, r *rng.RNG) (workload.Pattern, error) { return pat, nil },
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return goldenRun{metrics: res.CoreMetrics, avg: res.Avg.At(steps - 1).Mean(), vd: res.FinalLoadVD, nnz: sys.NNZ()}
}

// TestGoldenSamplePath pins the exact sample path of two sharded
// configurations. TestShardedWorkerInvariance compares a build with
// itself, so a change to the state layout or the barrier that alters the
// path under every worker count would pass it; this test fails instead.
// The first configuration is the sim-large benchmark set-up scaled down
// to n=4096; the second runs δ=3 with a single borrow slot, which drives
// remote borrows, borrow fails with class recovery, forced settlements
// and simulated decreases through the serial settlement pass.
func TestGoldenSamplePath(t *testing.T) {
	cases := []struct {
		name             string
		n, shards, steps int
		p                core.Params
		pat              workload.Pattern
		seed             uint64
		want             goldenRun
	}{
		{
			name: "sim-large-4096", n: 4096, shards: 64, steps: 10,
			p:    core.Params{F: 1.1, Delta: 1, C: 4},
			pat:  workload.Uniform{GenP: 0.5, ConP: 0.4},
			seed: 1,
			want: goldenRun{
				metrics: core.Metrics{TotalBorrow: 3777, DecreaseSim: 1, BalanceOps: 16553,
					Migrations: 9253, Generated: 20510, Consumed: 6280, ConsumeNoLoad: 1822},
				avg: 3.47412109375, vd: 0.3209762229778914, nnz: 15333,
			},
		},
		{
			name: "delta3-recovery", n: 512, shards: 8, steps: 300,
			p:    core.Params{F: 1.5, Delta: 3, C: 2},
			pat:  workload.Uniform{GenP: 0.45, ConP: 0.45},
			seed: 3,
			want: goldenRun{
				metrics: core.Metrics{TotalBorrow: 33401, RemoteBorrow: 193, BorrowFail: 1482,
					DecreaseSim: 885, BalanceOps: 30464, ClassBalanceOps: 1482, Migrations: 46701,
					Generated: 69140, Consumed: 37854, ConsumeNoLoad: 340, ForcedSettle: 315},
				avg: 61.10546875, vd: 0.013766448550379099, nnz: 31514,
			},
		},
	}
	for _, c := range cases {
		for _, w := range []int{1, 3} {
			got := runGolden(t, c.n, c.shards, c.steps, c.p, c.pat, c.seed, w)
			if got != c.want {
				t.Errorf("%s, %d workers:\n got  %+v\n want %+v", c.name, w, got, c.want)
			}
		}
	}
}
