package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lmbalance/internal/rng"
	"lmbalance/internal/wire"
	"lmbalance/internal/workload"
)

// The benchmark's own load generator: one TCP connection per front-end
// speaking the public client codec. It keeps every job's scheduled send
// time, indexed by the job's tag, so sojourn is measured from when a job
// was due — counting the wait a late generator or a stalled connection
// imposes — to when its CDone arrived.

// lgConn is one client connection and the record of every job sent on
// it; slot i describes the job tagged i+1. The open-loop sender owns
// sched/sent/units while sending; the reader owns done (and, in the
// closed loop, everything). They are read after both have exited.
type lgConn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	sched, sent, done []int64 // ns since loadgen.base; done 0 = not yet
	units             []int
	dupDones, badTags int64

	submitted, completed atomic.Int64
	reading              bool // a reader goroutine was started
	readerDone           chan struct{}
}

func dialAll(addrs []string) ([]*lgConn, error) {
	var conns []*lgConn
	for _, a := range addrs {
		nc, err := net.Dial("tcp", a)
		if err != nil {
			for _, c := range conns {
				c.close()
			}
			return nil, fmt.Errorf("dial %s: %w", a, err)
		}
		conns = append(conns, &lgConn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc), readerDone: make(chan struct{})})
	}
	return conns, nil
}

// close hangs up and waits for the reader, if one was started.
func (c *lgConn) close() {
	c.nc.Close()
	if c.reading {
		<-c.readerDone
	}
}

// loadgen drives all connections: an open loop on a precomputed Poisson
// schedule, or a closed loop with a fixed window of outstanding jobs.
type loadgen struct {
	p      serveParams
	conns  []*lgConn
	base   time.Time
	genEnd int64        // ns since base: no job is scheduled at or after this
	demand []*demandSeq // per connection
	sendWG sync.WaitGroup
}

func newLoadgen(p serveParams, seed uint64, conns []*lgConn, window time.Duration) *loadgen {
	lg := &loadgen{p: p, conns: conns, genEnd: int64(p.warmup + window)}
	for i, c := range conns {
		r := rng.New(rng.Mix64(seed, uint64(1000+i)))
		d := &demandSeq{d: p.demand, r: r}
		lg.demand = append(lg.demand, d)
		if p.rate > 0 {
			// Independent Poisson streams per connection sum to a
			// Poisson stream at the full rate.
			per := p.rate / float64(len(conns))
			for t := expGap(r, per); t < float64(lg.genEnd); t += expGap(r, per) {
				c.sched = append(c.sched, int64(t))
				c.units = append(c.units, d.next())
			}
			c.sent = make([]int64, len(c.sched))
			c.done = make([]int64, len(c.sched))
		}
	}
	return lg
}

// demandBlock is the number of jobs over which demands are stratified.
const demandBlock = 1000

// demandSeq draws job demands in blocks of demandBlock jobs. A block
// takes one uniform from each of demandBlock equal strata of [0, 1), in
// shuffled order, through the bounded-Pareto inverse CDF. Every block
// then holds the heavy tail in its expected proportion (one job of about
// Hi units per block at the workloads' parameters), so the tail latency
// measures the cluster rather than how many rare huge jobs a seed drew.
type demandSeq struct {
	d     workload.BoundedPareto
	r     *rng.RNG
	block []int
}

func (s *demandSeq) next() int {
	if len(s.block) == 0 {
		tail := 1 - math.Pow(s.d.Lo/s.d.Hi, s.d.Alpha)
		for i := 0; i < demandBlock; i++ {
			u := (float64(i) + s.r.Float64()) / demandBlock
			x := s.d.Lo * math.Pow(1-u*tail, -1/s.d.Alpha)
			s.block = append(s.block, max(1, int(math.Round(x))))
		}
		s.r.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	u := s.block[len(s.block)-1]
	s.block = s.block[:len(s.block)-1]
	return u
}

// expGap draws an exponential inter-arrival gap in nanoseconds.
func expGap(r *rng.RNG, ratePerSec float64) float64 {
	return -math.Log(1-r.Float64()) / ratePerSec * 1e9
}

func (lg *loadgen) now() int64 { return int64(time.Since(lg.base)) }

func (lg *loadgen) start() {
	lg.base = time.Now()
	for i, c := range lg.conns {
		c.reading = true
		if lg.p.rate > 0 {
			go lg.readOpen(c)
			lg.sendWG.Add(1)
			go lg.sendOpen(c)
		} else {
			for k := 0; k < lg.p.window; k++ {
				lg.submitClosed(c, lg.demand[i], lg.now())
			}
			c.bw.Flush()
			go lg.readClosed(c, lg.demand[i])
		}
	}
}

func (c *lgConn) write(tag, units int) {
	var buf [wire.MaxClientPayload + 2]byte
	c.bw.Write(wire.AppendCFrame(buf[:0], wire.CMsg{Kind: wire.CSubmit, Job: uint64(tag), Units: units}))
}

// sendOpen writes every job of the schedule when it falls due, batching
// the jobs due at each wake-up into one flush.
func (lg *loadgen) sendOpen(c *lgConn) {
	defer lg.sendWG.Done()
	for i := 0; i < len(c.sched); {
		now := lg.now()
		if wait := c.sched[i] - now; wait > 0 {
			time.Sleep(time.Duration(wait))
			continue
		}
		for ; i < len(c.sched) && c.sched[i] <= now; i++ {
			c.write(i+1, c.units[i])
			c.sent[i] = now
		}
		if c.bw.Flush() != nil {
			return
		}
		c.submitted.Store(int64(i))
	}
}

// submitClosed appends and writes one closed-loop job sent now.
func (lg *loadgen) submitClosed(c *lgConn, d *demandSeq, now int64) {
	c.sched = append(c.sched, now)
	c.sent = append(c.sent, now)
	c.done = append(c.done, 0)
	u := d.next()
	c.units = append(c.units, u)
	c.write(len(c.sched), u)
	c.submitted.Add(1)
}

// readOpen records completions until the connection closes.
func (lg *loadgen) readOpen(c *lgConn) {
	defer close(c.readerDone)
	for {
		m, _, err := wire.ReadCFrame(c.br)
		if err != nil {
			return
		}
		if m.Kind == wire.CDone {
			c.markDone(m.Job, lg.now())
		}
	}
}

// readClosed records completions and replaces each completed job with a
// new one until generation ends, flushing whenever the input runs dry.
func (lg *loadgen) readClosed(c *lgConn, d *demandSeq) {
	defer close(c.readerDone)
	for {
		m, _, err := wire.ReadCFrame(c.br)
		if err != nil {
			return
		}
		if m.Kind == wire.CDone {
			now := lg.now()
			c.markDone(m.Job, now)
			if now < lg.genEnd {
				lg.submitClosed(c, d, now)
			}
		}
		if c.br.Buffered() == 0 && c.bw.Flush() != nil {
			return
		}
	}
}

func (c *lgConn) markDone(tag uint64, now int64) {
	switch {
	case tag < 1 || tag > uint64(len(c.done)):
		c.badTags++
	case c.done[tag-1] != 0:
		c.dupDones++
	default:
		c.done[tag-1] = now
		c.completed.Add(1)
	}
}

// finishSending waits for the open-loop senders to finish the schedule.
// The closed loop stops by itself at genEnd.
func (lg *loadgen) finishSending() {
	lg.sendWG.Wait()
	if lg.p.rate == 0 {
		time.Sleep(time.Until(lg.base.Add(time.Duration(lg.genEnd))))
	}
}

// waitDone waits up to timeout for every submitted job to complete.
func (lg *loadgen) waitDone(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		var sub, done int64
		for _, c := range lg.conns {
			sub += c.submitted.Load()
			done += c.completed.Load()
		}
		if done >= sub {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// lgStats is the client-side view of one instance. Latency and
// lateness cover the jobs scheduled inside the measured window;
// completions count those that landed inside it.
type lgStats struct {
	submitted, completed int64
	sojourn              []latSample // at: seconds into the window
	doneAt               []float64   // completions inside the window, seconds into it
	late                 []float64   // ms each window job was sent late
	dupDones, badTags    int64
}

func (lg *loadgen) stats(warmup, window time.Duration) lgStats {
	var st lgStats
	lo, hi := int64(warmup), int64(warmup+window)
	for _, c := range lg.conns {
		st.submitted += c.submitted.Load()
		st.completed += c.completed.Load()
		st.dupDones += c.dupDones
		st.badTags += c.badTags
		n := int(c.submitted.Load())
		for i := 0; i < n; i++ {
			if d := c.done[i]; d >= lo && d < hi {
				st.doneAt = append(st.doneAt, float64(d-lo)/1e9)
			}
			if c.sched[i] < lo || c.sched[i] >= hi {
				continue
			}
			st.late = append(st.late, float64(c.sent[i]-c.sched[i])/1e6)
			if c.done[i] != 0 {
				st.sojourn = append(st.sojourn, latSample{at: float64(c.sched[i]-lo) / 1e9, ms: float64(c.done[i]-c.sched[i]) / 1e6})
			}
		}
	}
	return st
}
