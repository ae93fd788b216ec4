package core

import (
	"testing"

	"lmbalance/internal/rng"
	"lmbalance/internal/topology"
)

// FuzzOpSequence drives a System with an arbitrary byte-encoded sequence
// of operations and checks every structural invariant — including the
// sparse active-set bookkeeping — as it goes. Each byte encodes
// (processor, op): op = b&1 (generate/consume), processor = (b>>1) % n.
// Parameters derive from the first four bytes. After the scripted
// sequence the whole system is drained through Consume, which hammers the
// borrow/settle/classBalance paths while the active sets compact back
// toward empty.
func FuzzOpSequence(f *testing.F) {
	f.Add([]byte{0x10, 0x20, 0x30, 0x01, 0x02, 0x03, 0xff, 0x80})
	f.Add([]byte{0x00, 0x00, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0x00, 0x01, 0x02})
	// Generate-heavy prefix then consume-only tail: forces borrowing,
	// settlement and class recovery on the drained processors.
	f.Add([]byte{0x07, 0x01, 0x05, 0x02, 0x00, 0x04, 0x08, 0x0c, 0x00, 0x04,
		0x01, 0x05, 0x09, 0x0d, 0x01, 0x05, 0x09, 0x0d, 0x01, 0x05})
	// Single-producer, many consumers (hotspot shape).
	f.Add([]byte{0x20, 0x02, 0x10, 0x05, 0x00, 0x00, 0x00, 0x00, 0x03, 0x05,
		0x07, 0x09, 0x0b, 0x0d, 0x0f, 0x11, 0x13, 0x15, 0x17, 0x19})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 2 + int(data[0])%14
		delta := 1 + int(data[1])%3
		if delta > n-1 {
			delta = n - 1
		}
		fv := 1.0 + float64(data[2]%90)/100.0 // 1.00..1.89
		if fv >= float64(delta)+1 {
			fv = float64(delta) + 0.9
		}
		c := 1 + int(data[3])%6
		s, err := NewSystem(n, Params{F: fv, Delta: delta, C: c}, topology.NewGlobal(n), rng.New(uint64(len(data))))
		if err != nil {
			t.Fatalf("construction failed for derived params: %v", err)
		}
		for k, b := range data[4:] {
			p := (int(b) >> 1) % n
			if b&1 == 0 {
				s.Generate(p)
			} else {
				s.Consume(p)
			}
			if k%37 == 0 {
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("after op %d: %v", k, err)
				}
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// Loads are consistent with the snapshot API.
		loads := s.Loads(nil)
		total := 0
		for i, v := range loads {
			if v != s.Load(i) {
				t.Fatalf("snapshot mismatch at %d", i)
			}
			total += v
		}
		if total != s.TotalLoad() {
			t.Fatal("TotalLoad mismatch")
		}
		// The sparse accessors agree with the row sums and the global NNZ.
		checkSparseAccessors(t, s)
		// Drain everything, exercising borrow, remote settlement and the
		// §4 class recovery while entries compact. A single Consume may
		// fail transiently while load remains (settlement can migrate the
		// last packets away mid-call), so progress is asserted only as a
		// generous overall round bound.
		maxRounds := 16 * (s.TotalLoad() + n + 1)
		for round := 0; s.TotalLoad() > 0; round++ {
			if round > maxRounds {
				t.Fatalf("drain stalled: %d packets left after %d rounds", s.TotalLoad(), round)
			}
			for p := 0; p < n; p++ {
				s.Consume(p)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("drain round %d: %v", round, err)
			}
		}
		checkSparseAccessors(t, s)
	})
}

// checkSparseAccessors cross-checks the public per-cell accessors against
// the per-processor aggregates and active-set counters: Σ_j D(i,j) must
// equal Load(i), Σ_j B(i,j) must equal Borrowed(i), the number of nonzero
// (D,B) cells must equal ActiveClasses(i), and NNZ must be their sum.
func checkSparseAccessors(t *testing.T, s *System) {
	t.Helper()
	n := s.N()
	nnz := 0
	for i := 0; i < n; i++ {
		sumD, sumB, active := 0, 0, 0
		for j := 0; j < n; j++ {
			d, b := s.D(i, j), s.B(i, j)
			sumD += d
			sumB += b
			if d != 0 || b != 0 {
				active++
			}
		}
		if sumD != s.Load(i) {
			t.Fatalf("proc %d: ΣD = %d but Load = %d", i, sumD, s.Load(i))
		}
		if sumB != s.Borrowed(i) {
			t.Fatalf("proc %d: ΣB = %d but Borrowed = %d", i, sumB, s.Borrowed(i))
		}
		if active != s.ActiveClasses(i) {
			t.Fatalf("proc %d: %d nonzero cells but ActiveClasses = %d", i, active, s.ActiveClasses(i))
		}
		nnz += active
	}
	if nnz != s.NNZ() {
		t.Fatalf("summed nonzero cells %d but NNZ() = %d", nnz, s.NNZ())
	}
}

// FuzzSnakeDistribute checks the snake split on arbitrary class
// sequences: conservation, non-negativity, per-class ±1,
// per-participant grand totals ±1.
func FuzzSnakeDistribute(f *testing.F) {
	f.Add([]byte{3, 1, 10, 20, 0, 7})
	f.Add([]byte{8, 0, 255, 255, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m := 1 + int(data[0])%9
		start := int(data[1])
		totals := make([]int, 0, len(data)-2)
		for _, b := range data[2:] {
			totals = append(totals, int(b))
		}
		if msg := checkSnakeSequence(m, start, totals); msg != "" {
			t.Fatalf("m=%d start=%d totals=%v: %s", m, start, totals, msg)
		}
	})
}
