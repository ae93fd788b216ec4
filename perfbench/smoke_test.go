package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke check reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string
	}
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// fails unless each run passes its correctness gate and reports every
// metric BENCHMARK.json names, with the unit it names.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, w := range spec.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json names workload %s, the program has none", w.Name)
		}
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke"}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d", w.name, trace, res.Correct, res.Attempted)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%s: metric %s missing", w.name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s in %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
		}
	}
}
