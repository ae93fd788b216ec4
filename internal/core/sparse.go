package core

import "lmbalance/internal/rng"

// classEntry is one nonzero cell of a processor's foreign-class state: d
// real packets and b borrow markers of class cls. The fields are 32-bit so
// five entries share a cache line instead of two and a half: tails are
// the bulk of the state a balancing operation reads. A processor index
// fits (n is far below 2³¹), and so does a count, which never exceeds the
// number of packets in the system.
type classEntry struct {
	cls int32
	d   int32
	b   int32
}

// record is the complete state of one processor, kept in one place so a
// balancing operation touches one cache-resident record per participant.
// The own class (d[i][i], b[i][i]) lives inline beside the scalar state
// the factor-f trigger and the invariants read; tail holds the foreign
// classes only.
//
// Invariant: tail is sorted ascending by class, holds no empty entries
// and never holds the processor's own class (removal shifts, insertion
// binary-searches, and rebuild emits the already-sorted union). Keeping
// the tail sorted is what lets every RNG-consuming iteration visit
// classes in ascending order — identical to a dense 0..n-1 scan, the
// property the dense differential test pins down — without sorting per
// operation: profiles of the mixed workload showed a third of total
// runtime in per-balancing-op sorts once rows grow to hundreds of
// classes. Lookups binary-search the tail; no per-row map is worth its
// constant factor (measured slower on every benchmark workload).
//
// A record does not store its own index; methods that must tell the own
// class from a foreign one take it as self.
type record struct {
	d, b   int          // own-class real packets and borrow markers
	l      int          // physical load, d + Σ tail d
	bTot   int          // outstanding markers, b + Σ tail b
	lOld   int          // d at the last balancing operation (trigger base)
	localT int          // balancing operations participated in
	tail   []classEntry // foreign classes, ascending, none empty
}

// search binary-searches the tail for cls, returning the smallest index k
// with tail[k].cls >= cls (== len(tail) if none).
func (rec *record) search(cls int) int {
	lo, hi := 0, len(rec.tail)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(rec.tail[mid].cls) < cls {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// counts returns the (d, b) counts of class cls (zero if absent).
func (rec *record) counts(self, cls int) (d, b int) {
	if cls == self {
		return rec.d, rec.b
	}
	if k := rec.search(cls); k < len(rec.tail) && int(rec.tail[k].cls) == cls {
		return int(rec.tail[k].d), int(rec.tail[k].b)
	}
	return 0, 0
}

// set overwrites the (d, b) counts of class cls, creating or removing its
// tail entry as needed. It does not maintain l and bTot.
func (rec *record) set(self, cls, d, b int) {
	if cls == self {
		rec.d, rec.b = d, b
		return
	}
	k := rec.search(cls)
	present := k < len(rec.tail) && int(rec.tail[k].cls) == cls
	switch {
	case d == 0 && b == 0:
		if present {
			rec.tail = append(rec.tail[:k], rec.tail[k+1:]...)
		}
	case present:
		rec.tail[k].d, rec.tail[k].b = int32(d), int32(b)
	default:
		rec.tail = append(rec.tail, classEntry{})
		copy(rec.tail[k+1:], rec.tail[k:])
		rec.tail[k] = classEntry{cls: int32(cls), d: int32(d), b: int32(b)}
	}
}

// add adjusts the counts of class cls by the given deltas. It does not
// maintain l and bTot.
func (rec *record) add(self, cls, dd, db int) {
	d, b := rec.counts(self, cls)
	rec.set(self, cls, d+dd, b+db)
}

// rebuild replaces the record's class counts after a balancing
// operation: classes[ci] receives dMat[ci*m+k] and bMat[ci*m+k], where k
// is this processor's participant index, and l and bTot are recomputed.
// classes is ascending, so the tail comes out sorted; zero cells are
// skipped, so it comes out compact. classes must cover every class the
// record held before (redistribution operates on the union of the
// participants' active sets, which guarantees this).
func (rec *record) rebuild(self int, classes, dMat, bMat []int, k, m int) {
	if cap(rec.tail) == 0 && len(classes) > 1 {
		rec.tail = make([]classEntry, 0, minTailCap)
	}
	rec.d, rec.b, rec.l, rec.bTot = 0, 0, 0, 0
	rec.tail = rec.tail[:0]
	for ci, cls := range classes {
		d, b := dMat[ci*m+k], bMat[ci*m+k]
		rec.l += d
		rec.bTot += b
		if cls == self {
			rec.d, rec.b = d, b
		} else if d != 0 || b != 0 {
			rec.tail = append(rec.tail, classEntry{cls: int32(cls), d: int32(d), b: int32(b)})
		}
	}
}

// minTailCap is the capacity of a record's first tail. Balancing spreads
// a processor's packets over a few foreign classes (about three per
// processor in the uniform workloads), so starting there skips the
// one-two-four regrowth a tail would otherwise go through.
const minTailCap = 4

// active returns the number of classes the record actually holds.
func (rec *record) active() int {
	if rec.d != 0 || rec.b != 0 {
		return len(rec.tail) + 1
	}
	return len(rec.tail)
}

// randClass picks a uniformly random class among those whose counts
// satisfy pred, by reservoir sampling over the qualifying classes in
// ascending order; the own class is visited at its sorted position.
// Ascending order keeps the RNG consumption identical to a dense 0..n-1
// scan (zero cells never qualify under any of the algorithm's
// predicates). It returns -1 if no class qualifies.
func (rec *record) randClass(self int, pred func(d, b int) bool, r *rng.RNG) int {
	pick, seen := -1, 0
	consider := func(cls int) {
		seen++
		if r.Intn(seen) == 0 {
			pick = cls
		}
	}
	ownPending := pred(rec.d, rec.b)
	for k := range rec.tail {
		e := &rec.tail[k]
		if ownPending && int(e.cls) > self {
			consider(self)
			ownPending = false
		}
		if pred(int(e.d), int(e.b)) {
			consider(int(e.cls))
		}
	}
	if ownPending {
		consider(self)
	}
	return pick
}

// The class predicates of the algorithm's random choices.
func hasMarker(d, b int) bool  { return b > 0 }
func borrowable(d, b int) bool { return d > 0 && b == 0 }

// generate adds one self-generated packet, repaying a random outstanding
// marker instead if the processor holds any (appendix: the marker's class
// receives the packet), leaving the virtual load unchanged.
func (rec *record) generate(self int, r *rng.RNG) {
	if rec.bTot > 0 {
		rec.add(self, rec.randClass(self, hasMarker, r), +1, -1)
		rec.bTot--
	} else {
		rec.d++
	}
	rec.l++
}

// borrow consumes one real packet of a random borrowable foreign class,
// leaving a marker in its place, if the borrow capacity c allows and such
// a class exists. It reports whether it consumed.
func (rec *record) borrow(self, c int, r *rng.RNG) bool {
	if rec.bTot >= c {
		return false
	}
	j := rec.randClass(self, borrowable, r)
	if j < 0 {
		return false
	}
	rec.add(self, j, -1, +1)
	rec.bTot++
	rec.l--
	return true
}
