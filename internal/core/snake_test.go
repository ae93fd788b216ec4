package core

import (
	"testing"
	"testing/quick"

	"lmbalance/internal/rng"
)

func TestSnakeSingleClass(t *testing.T) {
	sn := newSnake(4, 0)
	got := make([]int, 4)
	sn.split(10, got)
	// 10 over 4: base 2, extras at positions 0,1.
	want := []int{3, 3, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("split(10) = %v, want %v", got, want)
		}
	}
	if sn.offset != 2 {
		t.Fatalf("offset = %d, want 2", sn.offset)
	}
}

func TestSnakeOffsetWraps(t *testing.T) {
	sn := newSnake(3, 2)
	got := make([]int, 3)
	sn.split(5, got)
	// base 1, extras at positions 2 and 0.
	if got[0] != 2 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("got %v", got)
	}
	if sn.offset != 1 {
		t.Fatalf("offset = %d, want 1", sn.offset)
	}
}

func TestSnakeZeroTotal(t *testing.T) {
	sn := newSnake(3, 1)
	got := []int{9, 9, 9}
	sn.split(0, got)
	for _, v := range got {
		if v != 0 {
			t.Fatalf("zero total must assign zeros, got %v", got)
		}
	}
	if sn.offset != 1 {
		t.Fatal("offset must not advance for zero remainder")
	}
}

func TestSnakePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("m=0 did not panic")
		}
	}()
	newSnake(0, 0)
}

func TestSnakeNegativeTotalPanics(t *testing.T) {
	sn := newSnake(2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("negative total did not panic")
		}
	}()
	sn.split(-1, make([]int, 2))
}

// checkSnakeSequence splits the class totals in order with one snake over
// m participants starting at start, and reports the first violation of
// the guarantees §4 of the paper demands from the "snake like
// distribution": per class, the split is non-negative, conserves the
// total and differs by at most one between participants; across all
// classes, the per-participant grand totals differ by at most one. It
// returns "" when every guarantee holds.
func checkSnakeSequence(m, start int, totals []int) string {
	sn := newSnake(m, start)
	perProc := make([]int, m)
	row := make([]int, m)
	for _, total := range totals {
		sn.split(total, row)
		sum := 0
		lo, hi := row[0], row[0]
		for p, v := range row {
			if v < 0 {
				return "negative assignment"
			}
			lo, hi = min(lo, v), max(hi, v)
			sum += v
			perProc[p] += v
		}
		if sum != total {
			return "conservation violated"
		}
		if hi-lo > 1 {
			return "per-class ±1 violated"
		}
	}
	lo, hi := perProc[0], perProc[0]
	for _, v := range perProc {
		lo, hi = min(lo, v), max(hi, v)
	}
	if hi-lo > 1 {
		return "per-participant ±1 violated"
	}
	return ""
}

// TestSnakeProperties verifies the two ±1 guarantees and conservation over
// random multi-class sequences.
func TestSnakeProperties(t *testing.T) {
	prop := func(mRaw, classesRaw uint8, seed uint16) bool {
		m := 2 + int(mRaw)%7              // 2..8 participants
		classes := 1 + int(classesRaw)%20 // 1..20 classes
		rr := rng.New(uint64(seed))
		start := rr.Intn(m)
		totals := make([]int, classes)
		for c := range totals {
			totals[c] = rr.Intn(40)
		}
		return checkSnakeSequence(m, start, totals) == ""
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
