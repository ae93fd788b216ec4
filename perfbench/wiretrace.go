package main

import (
	"bufio"
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"lmbalance/internal/wire"
)

// wireTrace is the traced run's view of the wire layer: every node's
// transport is wrapped in a tap shaped like flight.Tap. A Send is
// stamped and its frame encoded (the frame is what TCP carries); a pump
// goroutine receives from the inner inbox, stamps the receipt and hands
// the message on. TCP delivers each link in order, so the receipt pairs
// with the oldest unmatched send stamp of that (from, to) link.
type wireTrace struct {
	n         int
	links     []linkFIFO // from*n + to
	recording atomic.Bool

	mu        sync.Mutex
	delivery  []float64 // µs, sends and receipts inside the window
	frames    int64
	bytes     int64
	sample    []byte // frames seen in the window, for timing the codec
	unmatched int64  // receipts with no matching send (must stay 0)
}

// maxSampleBytes bounds the frames kept for the codec timing.
const maxSampleBytes = 4 << 20

type sendStamp struct {
	ns   int64
	kind wire.Kind
	rec  bool // sent inside the window
}

type linkFIFO struct {
	mu   sync.Mutex
	q    []sendStamp
	head int
}

func newWireTrace(n int) *wireTrace {
	return &wireTrace{n: n, links: make([]linkFIFO, n*n)}
}

var traceEpoch = time.Now()

func nowNS() int64 { return int64(time.Since(traceEpoch)) }

func (l *linkFIFO) push(s sendStamp) {
	l.mu.Lock()
	if l.head > 1024 && l.head*2 > len(l.q) {
		l.q = append(l.q[:0], l.q[l.head:]...)
		l.head = 0
	}
	l.q = append(l.q, s)
	l.mu.Unlock()
}

func (l *linkFIFO) popLast() {
	l.mu.Lock()
	if len(l.q) > l.head {
		l.q = l.q[:len(l.q)-1]
	}
	l.mu.Unlock()
}

func (l *linkFIFO) pop() (sendStamp, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.head == len(l.q) {
		return sendStamp{}, false
	}
	s := l.q[l.head]
	l.head++
	return s, true
}

// tap wraps node id's transport.
func (w *wireTrace) tap(id int, inner *wire.TCP) wire.Transport {
	t := &tapT{w: w, id: id, inner: inner, out: make(chan wire.Msg), stop: make(chan struct{}), done: make(chan struct{})}
	go t.pump()
	return t
}

type tapT struct {
	w     *wireTrace
	id    int
	inner *wire.TCP
	buf   []byte // encode scratch; only the owning node calls Send
	out   chan wire.Msg
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
}

func (t *tapT) Send(to int, m wire.Msg) error {
	rec := t.w.recording.Load()
	t.buf = wire.AppendFrame(t.buf[:0], m)
	if rec {
		t.w.mu.Lock()
		t.w.frames++
		t.w.bytes += int64(len(t.buf))
		if len(t.w.sample)+len(t.buf) <= maxSampleBytes {
			t.w.sample = append(t.w.sample, t.buf...)
		}
		t.w.mu.Unlock()
	}
	var l *linkFIFO
	if to >= 0 && to < t.w.n {
		l = &t.w.links[t.id*t.w.n+to]
		l.push(sendStamp{ns: nowNS(), kind: m.Kind, rec: rec})
	}
	err := t.inner.Send(to, m)
	if err != nil && l != nil {
		l.popLast()
	}
	return err
}

func (t *tapT) Inbox() <-chan wire.Msg { return t.out }

func (t *tapT) Stats() wire.Stats { return t.inner.Stats() }

// PeerStats forwards the per-link accounting the cluster uses to
// attribute aborts to a dead link.
func (t *tapT) PeerStats(id int) wire.Stats { return t.inner.PeerStats(id) }

func (t *tapT) Close() error {
	err := t.inner.Close()
	t.once.Do(func() { close(t.stop) })
	<-t.done
	return err
}

func (t *tapT) pump() {
	defer close(t.done)
	for {
		select {
		case <-t.stop:
			return
		case m, ok := <-t.inner.Inbox():
			if !ok {
				return
			}
			t.w.received(t.id, m, nowNS())
			select {
			case t.out <- m:
			case <-t.stop:
				return
			}
		}
	}
}

func (w *wireTrace) received(to int, m wire.Msg, ns int64) {
	if m.From < 0 || m.From >= w.n {
		return
	}
	s, ok := w.links[m.From*w.n+to].pop()
	if !ok || s.kind != m.Kind {
		w.mu.Lock()
		w.unmatched++
		w.mu.Unlock()
		return
	}
	if s.rec && w.recording.Load() {
		w.mu.Lock()
		w.delivery = append(w.delivery, float64(ns-s.ns)/1e3)
		w.mu.Unlock()
	}
}

// codecTiming replays frames seen in the window through the codec:
// wire.ReadFrame (the receive path) and wire.AppendFrame (the send
// path), repeated until each side has run for at least 200ms. It
// returns nanoseconds per frame for each.
func codecTiming(sample []byte) (encodeNS, decodeNS float64, err error) {
	var msgs []wire.Msg
	br := bufio.NewReader(bytes.NewReader(sample))
	for {
		m, _, err := wire.ReadFrame(br)
		if err != nil {
			break
		}
		msgs = append(msgs, m)
	}
	if len(msgs) == 0 {
		return 0, 0, nil
	}
	const minDur = 200 * time.Millisecond
	var frames int
	start := time.Now()
	for time.Since(start) < minDur {
		br := bufio.NewReader(bytes.NewReader(sample))
		for range msgs {
			if _, _, err := wire.ReadFrame(br); err != nil {
				return 0, 0, err
			}
		}
		frames += len(msgs)
	}
	decodeNS = float64(time.Since(start).Nanoseconds()) / float64(frames)
	buf := make([]byte, 0, 256)
	frames = 0
	start = time.Now()
	for time.Since(start) < minDur {
		for _, m := range msgs {
			buf = wire.AppendFrame(buf[:0], m)
		}
		frames += len(msgs)
	}
	encodeNS = float64(time.Since(start).Nanoseconds()) / float64(frames)
	sink = len(buf)
	return encodeNS, decodeNS, nil
}

// sink keeps the encode loop's result observable.
var sink int
