package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of an ascending slice
// (0 for an empty one).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// heapSampler records, for each garbage collection that ends while a
// window runs, the live heap it found. The reported figure is the
// median over those collections: the largest one depended on whether a
// collection happened to run while a new simulation state was being
// allocated, and moved by a quarter from run to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	live []float64 // MB, one per collection seen
}

func readHeap() (live, cycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 || s[1].Value.Kind() != metrics.KindUint64 {
		return 0, 0
	}
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// startHeapSampler collects garbage once, so the previous phase's heap
// is not counted, then checks for finished collections every 20ms until
// stopped.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		_, seen := readHeap()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if live, cycles := readHeap(); cycles != seen {
					seen = cycles
					h.live = append(h.live, float64(live)/(1<<20))
				}
			}
		}
	}()
	return h
}

// stopMB stops the sampler and returns the live heap of every
// collection it saw, in MB; with none, the current live heap.
func (h *heapSampler) stopMB() []float64 {
	close(h.stop)
	<-h.done
	if len(h.live) == 0 {
		live, _ := readHeap()
		return []float64{float64(live) / (1 << 20)}
	}
	return h.live
}

// latSample is one latency observation: where it falls in the measured
// window, in seconds from its start (a job's due time, or the end of a
// tree or a repetition), and how long it took, in ms.
type latSample struct{ at, ms float64 }

// subWindows is the number of equal slices a serving window is cut
// into: its throughput and latency quantiles are medians over slices.
const subWindows = 24

// windowedQuantile cuts the window into slices equal parts, takes the
// q-quantile of the latencies ending in each part, and returns the
// median over the parts with at least one sample. One part disturbed by
// a noisy neighbour then moves the figure by one rank, not by the
// disturbance's size.
func windowedQuantile(lat []latSample, window float64, slices int, q float64) float64 {
	parts := make([][]float64, slices)
	for _, l := range lat {
		i := min(max(int(l.at/window*float64(slices)), 0), slices-1)
		parts[i] = append(parts[i], l.ms)
	}
	var qs []float64
	for _, p := range parts {
		if len(p) > 0 {
			qs = append(qs, quantile(sortedCopy(p), q))
		}
	}
	return median(qs)
}

func latValues(lat []latSample) []float64 {
	out := make([]float64, len(lat))
	for i, l := range lat {
		out[i] = l.ms
	}
	return out
}

// latencySpec is how a workload summarises its latencies: the quantile
// reported as latency_tail_ms, and the number of equal slices of the
// window the quantiles are medians over (1: the whole window). README.md
// gives each workload's choice and the reason for it.
type latencySpec struct {
	tailQ  float64
	slices int
}

// e2eMetrics assembles the five end-to-end metrics every workload
// reports.
func e2eMetrics(lat []latSample, window float64, ls latencySpec, throughput float64, thrSamples int, heapMB, setups []float64) []metric {
	return []metric{
		{"latency_p50_ms", "ms", windowedQuantile(lat, window, ls.slices, 0.5), len(lat)},
		{"latency_tail_ms", "ms", windowedQuantile(lat, window, ls.slices, ls.tailQ), len(lat)},
		{"throughput_per_s", "1/s", throughput, thrSamples},
		{"live_heap_mb", "MB", median(heapMB), len(heapMB)},
		{"setup_s", "s", median(setups), len(setups)},
	}
}
