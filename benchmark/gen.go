package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"rossf/internal/msg"
)

const (
	// repLen is the length of one repetition: a measured window is split
	// into as many equal repetitions of about this length as fit, and a
	// reported value is the best of the per-repetition values.
	repLen = 500 * time.Millisecond
	// ringSamples is the latency ring, shared out evenly among the
	// repetitions of a window. A repetition that delivers more than its
	// share keeps its first latencies; the printed sample count shows when
	// that happened.
	ringSamples = 5 << 19
	// recRing is how many per-message records the span ring retains: the
	// last recRing messages of the traced window become the trace file.
	recRing = 1 << 13
	// stripes and stripeLen are the slab ranges the callback compares.
	stripes   = 4
	stripeLen = 64
)

// msgKind is the developer-side code of one workload, cut at the three
// layer boundaries the generator times: build the message (allocate,
// set header, copy the slab), publish it, release the developer's
// reference. The generator stub in the test implements it with no
// middleware behind it.
type msgKind interface {
	construct(seq uint32, stamp msg.Time) error
	publish() error
	release() error
}

// delivery is what the subscriber callback hands the harness, already
// reduced to the fields the check reads so both message types share one
// check.
type delivery struct {
	seq      uint32
	stamp    msg.Time
	headerOK bool   // Width/Height/Encoding as sent (true when masked: they do not travel)
	data     []byte // nil when the payload does not travel (masked)
}

// record holds one message's timestamps, in ns since harness.base. The
// publisher goroutine owns t0..t3, the callback owns cbSeq/cb0/cb1; t0
// alone is read across goroutines (the callback needs the creation time
// of the message it was handed).
type record struct {
	t0         atomic.Int64 // creation, before allocate
	t1, t2, t3 int64        // construct done, Publish returned, release done (traced only)
	pubSeq     uint32
	cbSeq      uint32
	cb0, cb1   int64 // callback entry and return (cb1 traced only)
}

// harness is the closed-loop generator plus the checking subscriber
// callback. Every buffer it writes per message is allocated here, once,
// so the harness adds no allocation to allocs_per_msg.
type harness struct {
	base    time.Time
	slab    []byte
	offsets [stripes]int
	timeout time.Duration // delivery timeout; expiry counts a failure

	credits chan struct{} // one token per message in flight; cap = window
	timer   *time.Timer

	recs    []record
	samples []int64 // ringSamples, one equal segment per repetition
	seg     []int64 // the current repetition's segment
	nseg    int     // samples written to seg (callback goroutine)

	seq     uint32 // last sequence number published
	lastSeq uint32 // last sequence number delivered (callback goroutine)
	traced  bool

	beforeRep func() // when set, runs ahead of every repetition, outside its measurements

	lastErr   error        // the last construct/publish/release error, for the report
	delivered atomic.Int64 // deliveries that passed the check
}

// newHarness makes a generator with window messages in flight and a
// latency ring of ring samples.
func newHarness(window, ring int) *harness {
	h := &harness{
		base:    time.Now(),
		timeout: 10 * time.Second,
		credits: make(chan struct{}, window),
		timer:   time.NewTimer(time.Hour),
		recs:    make([]record, recRing),
		samples: make([]int64, ring),
	}
	h.timer.Stop()
	// Touch every page now, so the measured window takes no first-write
	// fault on the harness's own memory.
	for i := 0; i < len(h.samples); i += 512 {
		h.samples[i] = 1
	}
	h.seg = h.samples
	return h
}

func (h *harness) now() int64 { return int64(time.Since(h.base)) }

func stampOf(ns int64) msg.Time {
	return msg.Time{Sec: uint32(ns / 1e9), Nsec: uint32(ns % 1e9)}
}

// newInputs starts a new topology: it derives the pixel slab and the
// stripe offsets from the seed (the same seed gives the same bytes and
// offsets; generating them is part of set-up) and restarts sequence
// numbers from 1.
func (h *harness) newInputs(seed uint64, size int) {
	rng := rand.New(rand.NewPCG(seed, 0x5f3759df))
	h.slab = make([]byte, size)
	for i := 0; i+8 <= size; i += 8 {
		binary.LittleEndian.PutUint64(h.slab[i:], rng.Uint64())
	}
	for i := range h.offsets {
		h.offsets[i] = rng.IntN(size - stripeLen + 1)
	}
	h.seq, h.lastSeq = 0, 0
}

// deliver is the subscriber callback: stamp the entry time, check the
// message, record the latency, return the credit.
func (h *harness) deliver(d delivery) {
	cb0 := h.now()
	r := &h.recs[d.seq%recRing]
	t0 := r.t0.Load()
	ok := d.seq > h.lastSeq && d.stamp == stampOf(t0) && d.headerOK
	if ok && d.data != nil {
		ok = len(d.data) == len(h.slab)
		for _, off := range h.offsets {
			ok = ok && bytes.Equal(d.data[off:off+stripeLen], h.slab[off:off+stripeLen])
		}
	}
	if d.seq > h.lastSeq {
		h.lastSeq = d.seq
	}
	if ok {
		h.delivered.Add(1)
	}
	if h.nseg < len(h.seg) {
		h.seg[h.nseg] = cb0 - t0
		h.nseg++
	}
	if h.traced {
		r.cbSeq, r.cb0, r.cb1 = d.seq, cb0, h.now()
	}
	select {
	case <-h.credits:
	default: // the generator gave this message up after the timeout
	}
}

// acquire takes one in-flight credit, waiting up to the delivery
// timeout for the callback to return one.
func (h *harness) acquire() bool {
	select {
	case h.credits <- struct{}{}:
		return true
	default:
	}
	h.timer.Reset(h.timeout)
	select {
	case h.credits <- struct{}{}:
		h.timer.Stop()
		return true
	case <-h.timer.C:
		return false
	}
}

// drain waits until nothing is in flight (or the timeout says what is
// left will not arrive) and leaves the window empty.
func (h *harness) drain() {
	for range cap(h.credits) {
		if !h.acquire() {
			break
		}
	}
	for {
		select {
		case <-h.credits:
		default:
			return
		}
	}
}

// send publishes one message the way the workload's developer code
// does: wait for a credit, then create, construct, publish, release. It
// returns the creation time. A delivery timeout or a publish error is
// not reported here; either leaves the message undelivered, which the
// caller counts.
func (h *harness) send(k msgKind) (t0 int64) {
	h.acquire()
	t0 = h.now()
	h.seq++
	rec := &h.recs[h.seq%recRing]
	rec.t0.Store(t0)
	err := k.construct(h.seq, stampOf(t0))
	if h.traced {
		rec.pubSeq, rec.t1 = h.seq, h.now()
	}
	if err == nil {
		err = k.publish()
		if h.traced {
			rec.t2 = h.now()
		}
		if rerr := k.release(); err == nil {
			err = rerr
		}
		if h.traced {
			rec.t3 = h.now()
		}
	}
	if err != nil {
		h.lastErr = err
		select { // this message will not reach the callback
		case <-h.credits:
		default:
		}
	}
	return t0
}

// firstDelivery sends one message and reports whether it arrived and
// passed the check: the end of set-up.
func (h *harness) firstDelivery(k msgKind) error {
	before := h.delivered.Load()
	h.send(k)
	h.drain()
	switch {
	case h.delivered.Load() == before+1:
		return nil
	case h.lastErr != nil:
		return h.lastErr
	}
	return errors.New("first message was not delivered correct")
}

// repResult is one repetition of a window.
type repResult struct {
	elapsed   time.Duration
	attempted int64
	delivered int64 // passed the check
	failed    int64 // publish errors + failed checks + undelivered
	stall     time.Duration
	cpu       time.Duration
	ctxsw     int64
	mallocs   uint64
	bytes     uint64
	lat       []int64 // ascending
}

// windowResult is a measured window: its repetitions plus the sequence
// range it published, which locates its records in the span ring.
type windowResult struct {
	reps              []repResult
	firstSeq, lastSeq uint32
	gcCycles          uint32
}

// runWindow drives the closed loop for dur, split into n repetitions.
// Each repetition starts from an empty window after a forced GC and ends
// drained, so no message straddles two repetitions.
func (h *harness) runWindow(k msgKind, dur time.Duration, n int, traced bool) windowResult {
	h.traced = traced
	w := windowResult{firstSeq: h.seq + 1}
	var ms0, ms1 runtime.MemStats
	var gc0 uint32
	for rep := range n {
		h.seg = h.samples[rep*(len(h.samples)/n) : (rep+1)*(len(h.samples)/n)]
		h.nseg = 0
		if h.beforeRep != nil {
			h.beforeRep()
		}
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		if rep == 0 {
			gc0 = ms0.NumGC
		}
		ok0 := h.delivered.Load()
		u0 := readUsage()
		r := repResult{}
		start := h.now()
		deadline := start + int64(dur)/int64(n)
		for {
			tA := h.now()
			if tA >= deadline {
				break
			}
			t0 := h.send(k)
			r.stall += time.Duration(t0 - tA)
			r.attempted++
		}
		h.drain()
		r.elapsed = time.Duration(h.now() - start)
		u1 := readUsage()
		runtime.ReadMemStats(&ms1)
		r.cpu, r.ctxsw = u1.cpu-u0.cpu, u1.ctxsw-u0.ctxsw
		r.mallocs, r.bytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
		r.delivered = h.delivered.Load() - ok0
		// Everything attempted and not delivered correct is a failure:
		// publish errors, failed checks, and messages still missing
		// after the delivery timeout.
		r.failed = max(r.attempted-r.delivered, 0)
		r.lat = h.seg[:h.nseg]
		slices.Sort(r.lat)
		w.reps = append(w.reps, r)
	}
	w.lastSeq = h.seq
	w.gcCycles = ms1.NumGC - gc0 - uint32(n) + 1 // beyond the forced one per repetition
	return w
}

// repsIn is how many repetitions a window of length dur is split into.
func repsIn(dur time.Duration) int { return max(int(dur/repLen), 1) }

// best maps every repetition to a value and returns the least
// disturbed one: the lowest, or the highest when higher is better.
// Interference on a shared host only ever slows a repetition, and it
// comes and goes within seconds or stays for minutes; the best of many
// short repetitions is the value a quiet host would give, and repeats
// between runs several times as tightly as their median (README.md has
// the measurements). tail.rep_spread_pct still reports how far the
// repetitions were apart.
func (w windowResult) best(higher bool, f func(repResult) float64) float64 {
	v := make([]float64, len(w.reps))
	for i, r := range w.reps {
		v[i] = f(r)
	}
	if len(v) == 0 {
		return 0
	}
	if higher {
		return slices.Max(v)
	}
	return slices.Min(v)
}

func (w windowResult) sum(f func(repResult) int64) (n int64) {
	for _, r := range w.reps {
		n += f(r)
	}
	return n
}

func (w windowResult) attempted() int64 { return w.sum(func(r repResult) int64 { return r.attempted }) }
func (w windowResult) delivered() int64 { return w.sum(func(r repResult) int64 { return r.delivered }) }
func (w windowResult) failed() int64    { return w.sum(func(r repResult) int64 { return r.failed }) }

// latencyP50 is the best repetition's median latency, in ns.
func (w windowResult) latencyP50() float64 {
	return w.best(false, func(r repResult) float64 { return quantile(r.lat, 0.5) })
}

func (w windowResult) samples() int64 {
	return w.sum(func(r repResult) int64 { return int64(len(r.lat)) })
}
