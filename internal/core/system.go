package core

import (
	"fmt"

	"lmbalance/internal/rng"
	"lmbalance/internal/topology"
)

// System is the state of n processors running the Lüling–Monien load
// balancing algorithm. It is driven step-by-step by a simulator calling
// Generate and Consume; all balancing activity happens inside those calls,
// exactly as in the appendix algorithm. A System is not safe for concurrent
// use through the sequential API; the sharded simulation engine drives
// disjoint processor ranges concurrently through Lane views and resolves
// cross-range balancing operations through the batched entry points in
// batch.go. Other concurrent realizations live in internal/pool
// (shared-memory worker pool) and internal/netsim (message-passing
// network).
//
// Per-class state is stored sparsely: processor i keeps one record (see
// sparse.go) with its scalar state, its own class inline and a compact
// sorted tail of the foreign classes it actually holds, instead of dense
// length-n d/b vectors. Memory is O(total nonzero + n) rather than O(n²),
// and a balancing operation touches only the union of classes its δ+1
// participants hold rather than scanning all n classes. The sparse system
// consumes the RNG stream exactly like the dense formulation, so results
// are bit-identical to the original dense implementation (enforced by
// TestSparseMatchesDenseReference).
//
// Every randomized internal operation threads an explicit (rng, scratch,
// metrics) triple instead of touching System-level fields: the sequential
// API passes the System's own triple, while the sharded engine passes
// per-worker scratch and metrics plus deterministic per-operation RNG
// streams so operations over disjoint participant sets can run on any
// worker with identical results.
type System struct {
	n      int
	params Params
	sel    topology.Selector
	rng    *rng.RNG

	records []record // records[i]: all state of processor i (sparse.go)

	metrics Metrics

	// sc is the scratch for the sequential API; concurrent deferred-op
	// workers allocate their own with NewScratch.
	sc *Scratch
}

// Scratch holds the reusable buffers one balancing operation needs. The
// sequential API uses the System's embedded Scratch; the sharded engine
// gives every resolution worker its own so operations over disjoint
// participant sets can execute concurrently without sharing any mutable
// state beyond the participants themselves. Its size depends on δ and on
// the participants' active classes, never on n.
type Scratch struct {
	candBuf    []int
	setBuf     []int
	mergeTail  [][]classEntry // per-participant unmerged tail remainder
	mergeOwn   []int          // per-participant pending own class of the merge
	unionBuf   []int          // active-class union of a participant set
	dMat, bMat []int          // union×participants count matrices
}

// newScratch builds a Scratch for balancing sets of at most m
// participants.
func newScratch(m int) *Scratch {
	return &Scratch{
		candBuf:   make([]int, 0, m),
		setBuf:    make([]int, 0, m),
		mergeTail: make([][]classEntry, m),
		mergeOwn:  make([]int, m),
	}
}

// NewScratch returns a fresh Scratch sized for this system, for callers
// that resolve deferred balancing operations concurrently (one Scratch per
// worker; a Scratch must not be shared between concurrently executing
// operations).
func (s *System) NewScratch() *Scratch {
	return newScratch(s.params.Delta + 2)
}

// NewSystem creates a balanced-empty system of n processors. The selector
// must be built for the same n. The RNG drives candidate selection and all
// random choices of the algorithm.
func NewSystem(n int, p Params, sel topology.Selector, r *rng.RNG) (*System, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: need n >= 2 processors, got %d", n)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if sel == nil || r == nil {
		return nil, fmt.Errorf("core: selector and rng must be non-nil")
	}
	if sel.N() != n {
		return nil, fmt.Errorf("core: selector built for %d processors, system has %d", sel.N(), n)
	}
	s := &System{
		n:       n,
		params:  p,
		sel:     sel,
		rng:     r,
		records: make([]record, n),
	}
	s.sc = s.NewScratch()
	return s, nil
}

// Name identifies the algorithm in experiment output.
func (s *System) Name() string {
	return fmt.Sprintf("LM(f=%g,δ=%d,C=%d,%s)", s.params.F, s.params.Delta, s.params.C, s.sel.Name())
}

// N returns the number of processors.
func (s *System) N() int { return s.n }

// Params returns the algorithm parameters.
func (s *System) Params() Params { return s.params }

// Load returns the physical load of processor i.
func (s *System) Load(i int) int { return s.records[i].l }

// Loads appends the physical loads of all processors to dst and returns it.
func (s *System) Loads(dst []int) []int {
	dst = dst[:0]
	for i := range s.records {
		dst = append(dst, s.records[i].l)
	}
	return dst
}

// VirtualLoad returns l[i] + Σ_j b[i][j] — the load the analysis sees
// (Theorem 4 works on virtual loads; physical load is at most C below it).
func (s *System) VirtualLoad(i int) int { return s.records[i].l + s.records[i].bTot }

// TotalLoad returns the number of packets in the system.
func (s *System) TotalLoad() int {
	sum := 0
	for i := range s.records {
		sum += s.records[i].l
	}
	return sum
}

// LocalTime returns the number of balancing operations processor i has
// participated in — the paper's local clock t'.
func (s *System) LocalTime(i int) int { return s.records[i].localT }

// TriggerBase returns l_old for processor i: its self-generated load at its
// last balancing operation, against which the factor-f trigger compares.
func (s *System) TriggerBase(i int) int { return s.records[i].lOld }

// Metrics returns a snapshot of the activity counters.
func (s *System) Metrics() Metrics { return s.metrics }

// AbsorbMetrics folds externally accumulated counters (per-lane or
// per-worker partial Metrics from a sharded run) into the system's own, so
// Metrics and CheckInvariants see the complete totals.
func (s *System) AbsorbMetrics(m Metrics) { s.metrics.Add(m) }

// D returns d[i][j] (real packets of class j on i); for tests and
// experiment introspection.
func (s *System) D(i, j int) int {
	d, _ := s.records[i].counts(i, j)
	return d
}

// B returns b[i][j] (borrow markers of class j on i).
func (s *System) B(i, j int) int {
	_, b := s.records[i].counts(i, j)
	return b
}

// Borrowed returns the number of outstanding borrow markers of processor i.
func (s *System) Borrowed(i int) int { return s.records[i].bTot }

// ActiveClasses returns the number of classes processor i currently holds
// (d or b nonzero) — the per-row cost driver of a balancing operation.
func (s *System) ActiveClasses(i int) int { return s.records[i].active() }

// NNZ returns the total number of nonzero per-class cells across all
// processors — the memory footprint driver of the sparse representation.
func (s *System) NNZ() int {
	total := 0
	for i := range s.records {
		total += s.records[i].active()
	}
	return total
}

// ForceBalance initiates a balancing operation on processor i regardless of
// the factor-f trigger. It exists for benchmarks and experiment harnesses;
// the algorithm itself only balances through the trigger.
func (s *System) ForceBalance(i int) { s.balance(i, s.rng, s.sc, &s.metrics) }

// Generate adds one self-generated packet to processor i. If i holds
// borrow markers, the new packet repays a debt instead (appendix: the
// marker's class receives the packet), leaving virtual loads unchanged.
// May trigger a balancing operation.
func (s *System) Generate(i int) {
	s.records[i].generate(i, s.rng)
	s.metrics.Generated++
	s.maybeBalance(i, s.rng, s.sc, &s.metrics)
}

// Consume removes one packet from processor i, borrowing from a foreign
// class if i has no self-generated packets left. It returns false if i has
// no load at all. May trigger balancing operations (on i, or on a class
// owner during borrow settlement).
func (s *System) Consume(i int) bool { return s.consume(i, s.rng, s.sc, &s.metrics) }

func (s *System) consume(i int, r *rng.RNG, sc *Scratch, m *Metrics) bool {
	rec := &s.records[i]
	// Consume a self packet if there is one, else borrow; failing both,
	// settle a marker and retry. Each settlement clears at least one
	// marker, so the loop terminates within C+2 rounds.
	for attempt := 0; attempt <= s.params.C+2; attempt++ {
		if rec.l == 0 {
			// Nothing to consume, possibly because settlement
			// rebalancing migrated all load away.
			break
		}
		if rec.d > 0 {
			// A self packet, possibly one settlement rebalancing gave
			// back.
			rec.d--
			rec.l--
			m.Consumed++
			s.maybeBalance(i, r, sc, m)
			return true
		}
		if rec.borrow(i, s.params.C, r) {
			m.TotalBorrow++
			m.Consumed++
			return true
		}
		// No borrow slot: settle a random outstanding marker first.
		j := rec.randClass(i, hasMarker, r)
		if j < 0 {
			// No markers and no borrowable class would mean l == 0;
			// unreachable, but fail safe rather than loop.
			break
		}
		s.settle(i, j, r, sc, m)
	}
	m.ConsumeNoLoad++
	return false
}

// trigFired reports the factor-f condition on a self-load d against the
// trigger base old. The strict-change guard (d != old) keeps the old == 0
// case from firing continuously (see doc.go).
func trigFired(d, old int, f float64) bool {
	if d > old && float64(d) >= f*float64(old) {
		return true
	}
	return d < old && float64(d)*f <= float64(old)
}

// TriggerPending reports whether processor i's factor-f trigger condition
// currently holds — the condition under which the sequential path fires a
// balancing operation. The sharded engine uses it to re-verify a deferred
// initiation at the tick barrier: an earlier operation in the same barrier
// may have included i as a partner and reset its trigger base.
func (s *System) TriggerPending(i int) bool {
	return trigFired(s.records[i].d, s.records[i].lOld, s.params.F)
}

// maybeBalance fires a balancing operation if processor i's self-generated
// load has changed by at least the factor f since its last balancing
// operation.
func (s *System) maybeBalance(i int, r *rng.RNG, sc *Scratch, m *Metrics) {
	if s.TriggerPending(i) {
		s.balance(i, r, sc, m)
	}
}

// balance performs a full balancing operation initiated by processor init:
// δ random partners are selected and all class vectors of the δ+1
// participants are snake-redistributed. Every participant's local clock
// ticks, lOld resets, and own-class borrow markers are cleared (simulated
// decrease).
func (s *System) balance(init int, r *rng.RNG, sc *Scratch, m *Metrics) {
	sc.candBuf = s.sel.Select(init, s.params.Delta, r, sc.candBuf)
	s.balanceSet(init, sc.candBuf, r, sc, m)
}

// balanceSet is balance with the δ partners already chosen; the sharded
// engine pre-draws them from the operation's private stream during barrier
// planning (the participant set decides which operations may resolve
// concurrently).
func (s *System) balanceSet(init int, partners []int, r *rng.RNG, sc *Scratch, m *Metrics) {
	sc.setBuf = append(sc.setBuf[:0], init)
	sc.setBuf = append(sc.setBuf, partners...)
	set := sc.setBuf
	m.BalanceOps++
	s.redistribute(set, r, sc, m)
	for _, p := range set {
		rec := &s.records[p]
		if !s.params.InitiatorOnlyReset || p == init {
			rec.lOld = rec.d
		}
		rec.localT++
		if rec.b > 0 {
			// The owner consumes its own phantoms: simulated decrease.
			rec.bTot -= rec.b
			rec.b = 0
			m.DecreaseSim++
		}
	}
}

// gather collects the ascending union of classes held (d or b nonzero) by
// any processor in set and fills the union×np count matrices: row ci of
// dMat and bMat holds every participant's counts of classes[ci]. The
// sorted-tail invariant turns this into an np-way merge — one cursor per
// participant tail, plus each participant's own class slotted in by value
// — costing O(union × np) comparisons where a collect-and-sort would pay
// O(union log union); with rows hundreds of classes wide under
// load-accumulating workloads, that sort dominated whole-simulation
// profiles.
func (s *System) gather(set []int, sc *Scratch) (classes, dMat, bMat []int) {
	const none = int(^uint(0) >> 1)
	np := len(set)
	tails := sc.mergeTail[:np]
	own := sc.mergeOwn[:np]
	bound := 0 // the union has at most Σ active classes
	for k, p := range set {
		rec := &s.records[p]
		tails[k] = rec.tail
		own[k] = none
		if rec.d != 0 || rec.b != 0 {
			own[k] = p
		}
		bound += len(rec.tail) + 1
	}
	if cap(sc.dMat) < bound*np {
		sc.dMat = make([]int, bound*np)
		sc.bMat = make([]int, bound*np)
	}
	classes, dMat, bMat = sc.unionBuf[:0], sc.dMat[:bound*np], sc.bMat[:bound*np]
	row := 0
	for {
		best := none
		for k, t := range tails {
			if len(t) > 0 && int(t[0].cls) < best {
				best = int(t[0].cls)
			}
			if own[k] < best {
				best = own[k]
			}
		}
		if best == none {
			break
		}
		classes = append(classes, best)
		for k, t := range tails {
			d, b := 0, 0
			if len(t) > 0 && int(t[0].cls) == best {
				d, b = int(t[0].d), int(t[0].b)
				tails[k] = t[1:]
			} else if own[k] == best {
				d, b = s.records[best].d, s.records[best].b
				own[k] = none
			}
			dMat[row+k], bMat[row+k] = d, b
		}
		row += np
	}
	clear(tails) // hold no references to the records' tails
	sc.unionBuf = classes
	return classes, dMat[:row], bMat[:row]
}

// redistribute snake-distributes the d classes followed by the b classes
// of the participant set, maintaining l and bTot and counting migrations.
// Only the union of the participants' active classes is visited; all other
// classes have zero totals, for which the dense formulation would not
// advance the snake either, so the result is identical. The snake splits
// each class in place in its matrix row, and the records are rebuilt
// wholesale afterwards, keeping the hot loop free of row searches.
func (s *System) redistribute(set []int, r *rng.RNG, sc *Scratch, m *Metrics) {
	np := len(set)
	classes, dMat, bMat := s.gather(set, sc)
	sn := newSnake(np, r.Intn(np))
	for _, mat := range [2][]int{dMat, bMat} {
		for ci := range classes {
			row := mat[ci*np : ci*np+np]
			total := 0
			for _, v := range row {
				total += v
			}
			if total > 0 { // a zero total would split into the zeros already there
				sn.split(total, row)
			}
		}
	}
	for k, p := range set {
		rec := &s.records[p]
		oldL := rec.l
		rec.rebuild(p, classes, dMat, bMat, k, np)
		if recv := rec.l - oldL; recv > 0 {
			m.Migrations += int64(recv)
		}
	}
}

// CheckInvariants verifies the structural invariants documented in doc.go —
// non-negative counts, l[i] == Σ_j d[i][j], bTot[i] == Σ_j b[i][j], exact
// packet conservation (TotalLoad == Generated − Consumed) — plus the
// sparse bookkeeping: every foreign tail is sorted strictly ascending (so
// no class appears twice), holds no empty entry and no entry of the
// processor's own class. It is O(total nonzero + n) and intended for
// tests.
func (s *System) CheckInvariants() error {
	var totalLoad int64
	for i := range s.records {
		rec := &s.records[i]
		if rec.d < 0 || rec.b < 0 {
			return fmt.Errorf("core: own class of %d: d = %d, b = %d, need >= 0", i, rec.d, rec.b)
		}
		sumD, sumB := rec.d, rec.b
		for k := range rec.tail {
			e := &rec.tail[k]
			switch {
			case e.cls < 0 || int(e.cls) >= s.n:
				return fmt.Errorf("core: row %d: class %d out of range", i, e.cls)
			case int(e.cls) == i:
				return fmt.Errorf("core: row %d: own class stored in the foreign tail", i)
			case e.d < 0:
				return fmt.Errorf("core: d[%d][%d] = %d < 0", i, e.cls, e.d)
			case e.b < 0:
				return fmt.Errorf("core: b[%d][%d] = %d < 0", i, e.cls, e.b)
			case e.d == 0 && e.b == 0:
				return fmt.Errorf("core: row %d: empty entry for class %d not compacted", i, e.cls)
			case k > 0 && e.cls <= rec.tail[k-1].cls:
				return fmt.Errorf("core: row %d: tail not sorted at index %d (%d after %d)",
					i, k, e.cls, rec.tail[k-1].cls)
			}
			sumD += int(e.d)
			sumB += int(e.b)
		}
		if rec.l != sumD {
			return fmt.Errorf("core: l[%d] = %d but Σd = %d", i, rec.l, sumD)
		}
		if rec.bTot != sumB {
			return fmt.Errorf("core: bTot[%d] = %d but Σb = %d", i, rec.bTot, sumB)
		}
		totalLoad += int64(rec.l)
	}
	if want := s.metrics.Generated - s.metrics.Consumed; totalLoad != want {
		return fmt.Errorf("core: total load %d but generated−consumed = %d", totalLoad, want)
	}
	return nil
}

// settle resolves one outstanding borrow marker b[i][j] (see doc.go for
// the three cases).
func (s *System) settle(i, j int, r *rng.RNG, sc *Scratch, m *Metrics) {
	rec, owner := &s.records[i], &s.records[j]
	if j == i {
		// The owner clears its own phantoms: simulated decrease.
		rec.bTot -= rec.b
		rec.b = 0
		m.DecreaseSim++
		return
	}
	if owner.d > 0 {
		s.exchange(i, j, r, sc, m)
		return
	}
	// Borrow fail: the class owner has no real self packets. Run the §4
	// recovery — a class-j-only balancing over j, δ random candidates and
	// i — then settle if it produced packets at j.
	m.BorrowFail++
	s.classBalance(j, i, r, sc, m)
	if _, b := rec.counts(i, j); b == 0 {
		// The marker migrated away (another participant now carries the
		// debt); i is free to borrow again.
		return
	}
	if owner.d > 0 {
		s.exchange(i, j, r, sc, m)
		return
	}
	// Class j has no real packets among the participants: force-clear the
	// marker with a simulated decrease accounted to class j. Unreachable
	// under the paper's assumptions; kept for progress under adversarial
	// schedules.
	rec.add(i, j, 0, -1)
	rec.bTot--
	m.ForcedSettle++
	m.DecreaseSim++
}

// exchange performs the paper's remote-borrow settlement: processor j
// migrates one real class-j packet to i, i clears its class-j marker, and
// j treats the loss as a simulated workload decrease (which may trigger a
// balancing operation on j).
func (s *System) exchange(i, j int, r *rng.RNG, sc *Scratch, m *Metrics) {
	owner, rec := &s.records[j], &s.records[i]
	owner.d--
	owner.l--
	rec.add(i, j, +1, -1)
	rec.l++
	rec.bTot--
	m.RemoteBorrow++
	m.DecreaseSim++
	s.maybeBalance(j, r, sc, m)
}

// classBalance redistributes only class cls over the owner, δ random
// candidates of the owner, and the extra processor (the borrower), leaving
// every other class untouched. Markers of class cls arriving at the owner
// are consumed (the paper: "at least one processor migrates its borrowed
// packet to j where it is also consumed").
func (s *System) classBalance(owner, extra int, r *rng.RNG, sc *Scratch, m *Metrics) {
	cls := owner // the class being balanced is the owner's own class
	m.ClassBalanceOps++
	sc.candBuf = s.sel.Select(owner, s.params.Delta, r, sc.candBuf)
	sc.setBuf = append(sc.setBuf[:0], owner)
	for _, c := range sc.candBuf {
		if c != extra {
			sc.setBuf = append(sc.setBuf, c)
		}
	}
	if extra != owner {
		sc.setBuf = append(sc.setBuf, extra)
	}
	set := sc.setBuf
	np := len(set)

	// Row 0 of the count matrices holds the participants' old counts,
	// row 1 the split.
	sc.dMat = append(sc.dMat[:0], make([]int, 2*np)...)
	sc.bMat = append(sc.bMat[:0], make([]int, 2*np)...)
	oldD, newD := sc.dMat[:np], sc.dMat[np:]
	oldB, newB := sc.bMat[:np], sc.bMat[np:]
	totalD, totalB := 0, 0
	for k, p := range set {
		oldD[k], oldB[k] = s.records[p].counts(p, cls)
		totalD += oldD[k]
		totalB += oldB[k]
	}
	sn := newSnake(np, r.Intn(np))
	sn.split(totalD, newD)
	sn.split(totalB, newB)
	for k, p := range set {
		rec := &s.records[p]
		rec.set(p, cls, newD[k], newB[k])
		rec.l += newD[k] - oldD[k]
		rec.bTot += newB[k] - oldB[k]
		if recv := newD[k] - oldD[k]; recv > 0 {
			m.Migrations += int64(recv)
		}
	}
	// Markers of the class that landed on the owner are consumed there.
	if rec := &s.records[owner]; rec.b > 0 {
		rec.bTot -= rec.b
		rec.b = 0
		m.DecreaseSim++
	}
}
