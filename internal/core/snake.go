package core

// snake redistributes a sequence of per-class totals over m participants
// so that
//
//   - within each class, any two participants receive counts differing by
//     at most one, and
//   - across all classes split with the same snake, the per-participant
//     grand totals also differ by at most one.
//
// It is the "snake like distribution of packets" the paper invokes in §4 to
// make the per-class AND per-processor ±1 constraints simultaneously
// satisfiable.
//
// The mechanism: class totals are split into base = total/m for everyone
// plus rem = total%m single extras. Extras are handed out at consecutive
// circular positions starting at offset, and offset advances by rem, so
// over any run of classes the extras visit positions round-robin — after
// splitting classes with a combined remainder R, participant p has
// received ⌊R/m⌋ or ⌈R/m⌉ extras.
type snake struct {
	m      int
	offset int
}

// newSnake returns a snake over m participants starting at extra position
// start (start is reduced modulo m). m must be >= 1.
func newSnake(m, start int) snake {
	if m < 1 {
		panic("core: snake with m < 1")
	}
	return snake{m: m, offset: ((start % m) + m) % m}
}

// split writes the split of total over the m participants into dst[:m]
// and advances the offset. total must be >= 0. Splitting a zero total
// writes zeros and leaves the offset where it was.
func (s *snake) split(total int, dst []int) {
	if total < 0 {
		panic("core: snake split with negative total")
	}
	dst = dst[:s.m]
	base := total / s.m
	rem := total % s.m
	for p := range dst {
		dst[p] = base
	}
	// The extras go to the circular run [offset, offset+rem).
	for e, p := 0, s.offset; e < rem; e++ {
		dst[p]++
		if p++; p == s.m {
			p = 0
		}
	}
	s.offset = (s.offset + rem) % s.m
}
