package core

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// The recycled-record safety property. Records are pooled: the record
// (and, for heap arenas, the address) a destructed message occupied
// goes straight to the next message. Everything that can still reach
// the record afterwards — a copy of a Ref or a Buffer, and in
// lifecycle-debug mode a message or field pointer — must fail with
// ErrDestructed / ErrStaleGeneration / ErrNotManaged / ErrBufferMisuse
// and must leave the next occupant's reference count, size and bytes
// alone.
//
// The model: worker goroutines share one Manager (so a record freed by
// one worker is the next record of another) and run a seeded random
// sequence of NewIn, Adopt, Retain, Release, NewRef, Ref.Retain,
// Ref.Release, Ref.Publish, Clone and grow. Only its owner touches a
// message's bytes; counted references also travel between workers, so
// the final release of a message happens on any of them. Every handle
// is copied before it is released, and the copies of handles whose
// incarnation is known to have ended are poked at random for the rest
// of the run. Corruption shows up as: a stale operation that succeeds,
// an owner whose message bytes or size changed, a reference count below
// what its owner holds, a release that fails or destructs early, or —
// at the end — a message still live, or a record table out of order.

// recycleMsg is the model of one live message.
type recycleMsg struct {
	m    *testImage
	own  int          // references this worker holds through the pointer
	refs atomic.Int32 // references the model holds in total; zero once the last release has begun
	want []byte       // the whole-message bytes as the owner last left them
}

// staleSet is what a worker keeps of ended incarnations.
type staleSet struct {
	refs []Ref
	bufs []Buffer
	ptrs []*testImage // lifecycle-debug only: without the quarantine an address is legitimately reissued
}

func isStaleErr(err error) bool {
	return errors.Is(err, ErrDestructed) || errors.Is(err, ErrStaleGeneration) || errors.Is(err, ErrNotManaged)
}

type recycleWorker struct {
	t     *testing.T
	rng   *rand.Rand
	mgr   *Manager
	debug bool
	mail  []chan sharedRef // mail[i] carries references handed to worker i
	id    int

	msgs    []*recycleMsg
	foreign []sharedRef // references to other workers' messages
	stale   staleSet
}

// sharedRef is a counted reference with the model of the message it
// holds.
type sharedRef struct {
	ref Ref
	msg *recycleMsg
}

const staleKeep = 64

func (w *recycleWorker) keepStaleRef(f Ref) {
	if len(w.stale.refs) < staleKeep {
		w.stale.refs = append(w.stale.refs, f)
	} else {
		w.stale.refs[w.rng.Intn(staleKeep)] = f
	}
}

func (w *recycleWorker) keepStaleBuf(b Buffer) {
	if len(w.stale.bufs) < staleKeep {
		w.stale.bufs = append(w.stale.bufs, b)
	} else {
		w.stale.bufs[w.rng.Intn(staleKeep)] = b
	}
}

func (w *recycleWorker) keepStalePtr(m *testImage) {
	if !w.debug {
		return
	}
	if len(w.stale.ptrs) < staleKeep {
		w.stale.ptrs = append(w.stale.ptrs, m)
	} else {
		w.stale.ptrs[w.rng.Intn(staleKeep)] = m
	}
}

// snapshot records the message bytes as the owner sees them now.
func (w *recycleWorker) snapshot(msg *recycleMsg) {
	b, err := Bytes(msg.m)
	if err != nil {
		w.t.Errorf("worker %d: Bytes of an owned message: %v", w.id, err)
		return
	}
	msg.want = append(msg.want[:0], b...)
}

// track starts the model of a message this worker just created, its one
// reference held through the pointer.
func (w *recycleWorker) track(m *testImage) *recycleMsg {
	msg := &recycleMsg{m: m, own: 1}
	msg.refs.Store(1)
	w.snapshot(msg)
	w.msgs = append(w.msgs, msg)
	return msg
}

func (w *recycleWorker) capacity() int { return 256 << w.rng.Intn(5) } // 256 B .. 4 KiB: three size classes

func (w *recycleWorker) opNew() {
	m, err := NewIn[testImage](w.mgr, w.capacity())
	if err != nil {
		w.t.Errorf("worker %d: NewIn: %v", w.id, err)
		return
	}
	m.Height, m.Width = w.rng.Uint32(), uint32(w.id)
	w.track(m)
}

func (w *recycleWorker) opAdopt() {
	n := 24 + w.rng.Intn(200)
	b := w.mgr.GetBuffer(n + w.rng.Intn(64))
	image := b.Bytes()[:n]
	clear(image) // an empty skeleton plus opaque tail bytes
	for i := 24; i < n; i++ {
		image[i] = byte(w.rng.Intn(256))
	}
	if w.rng.Intn(8) == 0 {
		b.Discard()
		w.keepStaleBuf(b)
		return
	}
	m, f, err := AdoptRef[testImage](b, n)
	if err != nil {
		w.t.Errorf("worker %d: AdoptRef: %v", w.id, err)
		return
	}
	w.keepStaleBuf(b) // the loan is spent
	msg := w.track(m)
	if w.rng.Intn(2) == 0 {
		// Hold the adopter's one reference as the resolved handle, the way
		// a transport does, instead of through the pointer.
		msg.own = 0
		w.forget(msg)
		w.foreign = append(w.foreign, sharedRef{ref: f, msg: msg})
	}
}

// owned picks a message this worker may touch through its pointer.
func (w *recycleWorker) owned() *recycleMsg {
	var have []*recycleMsg
	for _, msg := range w.msgs {
		if msg.own > 0 {
			have = append(have, msg)
		}
	}
	if len(have) == 0 {
		return nil
	}
	return have[w.rng.Intn(len(have))]
}

func (w *recycleWorker) opRetain() {
	msg := w.owned()
	if msg == nil {
		return
	}
	if err := Retain(msg.m); err != nil {
		w.t.Errorf("worker %d: Retain of an owned message: %v", w.id, err)
		return
	}
	msg.own++
	msg.refs.Add(1)
}

// forget drops the model of a message this worker can no longer reach
// through its pointer.
func (w *recycleWorker) forget(msg *recycleMsg) {
	for i, x := range w.msgs {
		if x == msg {
			w.msgs[i] = w.msgs[len(w.msgs)-1]
			w.msgs = w.msgs[:len(w.msgs)-1]
			return
		}
	}
}

func (w *recycleWorker) opRelease() {
	msg := w.owned()
	if msg == nil {
		return
	}
	msg.own--
	msg.refs.Add(-1)
	m := msg.m
	if msg.own == 0 {
		w.forget(msg) // handles elsewhere may outlive the pointer
	}
	destructed, err := Release(m)
	if err != nil {
		w.t.Errorf("worker %d: Release of an owned message: %v", w.id, err)
		return
	}
	if left := msg.refs.Load(); destructed && left != 0 {
		w.t.Errorf("worker %d: Release destructed a message the model still holds %d references to", w.id, left)
	}
	if destructed {
		w.keepStalePtr(m)
	}
}

func (w *recycleWorker) opNewRef() {
	msg := w.owned()
	if msg == nil {
		return
	}
	f, err := NewRef(msg.m)
	if err != nil {
		w.t.Errorf("worker %d: NewRef of an owned message: %v", w.id, err)
		return
	}
	msg.refs.Add(1)
	w.place(sharedRef{ref: f, msg: msg})
}

// place keeps a counted reference or mails it to another worker.
func (w *recycleWorker) place(s sharedRef) {
	if to := w.rng.Intn(len(w.mail)); to != w.id {
		select {
		case w.mail[to] <- s:
			return
		default:
		}
	}
	w.foreign = append(w.foreign, s)
}

func (w *recycleWorker) opCollect() {
	for {
		select {
		case s := <-w.mail[w.id]:
			w.foreign = append(w.foreign, s)
		default:
			return
		}
	}
}

func (w *recycleWorker) opRefRetain() {
	if len(w.foreign) == 0 {
		return
	}
	s := w.foreign[w.rng.Intn(len(w.foreign))]
	f, err := s.ref.Retain()
	if err != nil {
		w.t.Errorf("worker %d: Retain through a held reference: %v", w.id, err)
		return
	}
	s.msg.refs.Add(1)
	w.place(sharedRef{ref: f, msg: s.msg})
}

func (w *recycleWorker) opRefRelease() {
	if len(w.foreign) == 0 {
		return
	}
	i := w.rng.Intn(len(w.foreign))
	s := w.foreign[i]
	w.foreign[i] = w.foreign[len(w.foreign)-1]
	w.foreign = w.foreign[:len(w.foreign)-1]
	w.releaseRef(s)
}

func (w *recycleWorker) releaseRef(s sharedRef) {
	keep := s.ref // the copy that outlives the release
	s.msg.refs.Add(-1)
	destructed, err := s.ref.Release()
	if err != nil {
		w.t.Errorf("worker %d: Release of a held reference: %v", w.id, err)
		return
	}
	if left := s.msg.refs.Load(); destructed && left != 0 {
		w.t.Errorf("worker %d: Ref.Release destructed a message the model still holds %d references to", w.id, left)
	}
	if _, err := s.ref.Release(); !errors.Is(err, ErrDestructed) {
		w.t.Errorf("worker %d: second Release through the same Ref = %v, want ErrDestructed", w.id, err)
	}
	if destructed {
		w.keepStaleRef(keep)
	}
}

func (w *recycleWorker) opPublish() {
	if len(w.foreign) == 0 {
		return
	}
	s := w.foreign[w.rng.Intn(len(w.foreign))]
	if _, err := s.ref.Publish(); err != nil {
		w.t.Errorf("worker %d: Publish through a held reference: %v", w.id, err)
	}
	if st := s.ref.State(); st != StatePublished {
		w.t.Errorf("worker %d: state after Publish = %v", w.id, st)
	}
}

func (w *recycleWorker) opClone() {
	msg := w.owned()
	if msg == nil {
		return
	}
	c, err := Clone(msg.m)
	if err != nil {
		w.t.Errorf("worker %d: Clone of an owned message: %v", w.id, err)
		return
	}
	cm := w.track(c)
	if !bytes.Equal(cm.want, msg.want) {
		w.t.Errorf("worker %d: clone differs from its source", w.id)
	}
}

func (w *recycleWorker) opGrow() {
	msg := w.owned()
	if msg == nil {
		return
	}
	m := msg.m
	var err error
	switch {
	case !m.Encoding.IsSet():
		err = m.Encoding.Set(randString(w.rng, 1+w.rng.Intn(12)))
	case m.Data.Len() == 0:
		n := 1 + w.rng.Intn(300)
		if err = m.Data.Resize(n); err == nil {
			w.rng.Read(m.Data.Slice())
		}
	default:
		return
	}
	if err != nil && !errors.Is(err, ErrCapacityExceeded) {
		w.t.Errorf("worker %d: grow of an owned message: %v", w.id, err)
		return
	}
	w.snapshot(msg)
}

// opVerify checks that nothing but the owner changed an owned message.
func (w *recycleWorker) opVerify() {
	msg := w.owned()
	if msg == nil {
		return
	}
	got, err := Bytes(msg.m)
	if err != nil {
		w.t.Errorf("worker %d: Bytes of an owned message: %v", w.id, err)
		return
	}
	if !bytes.Equal(got, msg.want) {
		w.t.Errorf("worker %d: an owned message changed under its owner (used %d -> %d)", w.id, len(msg.want), len(got))
	}
	if n, err := RefCountOf(msg.m); err != nil || n < msg.own {
		w.t.Errorf("worker %d: reference count %d (%v) below the %d its owner holds", w.id, n, err, msg.own)
	}
}

// opPokeStale uses what is left of ended incarnations: every operation
// must fail, and (checked by opVerify and the end state) change nothing.
func (w *recycleWorker) opPokeStale() {
	if n := len(w.stale.refs); n > 0 {
		f := w.stale.refs[w.rng.Intn(n)]
		if _, err := f.Retain(); !isStaleErr(err) {
			w.t.Errorf("worker %d: Retain through a stale Ref = %v", w.id, err)
		}
		c := f
		if destructed, err := c.Release(); !isStaleErr(err) || destructed {
			w.t.Errorf("worker %d: Release through a stale Ref = (%v, %v)", w.id, destructed, err)
		}
		if b := f.Bytes(); b != nil {
			w.t.Errorf("worker %d: Bytes through a stale Ref = %d bytes", w.id, len(b))
		}
		if _, err := f.Publish(); !isStaleErr(err) {
			w.t.Errorf("worker %d: Publish through a stale Ref = %v", w.id, err)
		}
		if st := f.State(); st != StateDestructed {
			w.t.Errorf("worker %d: State through a stale Ref = %v", w.id, st)
		}
	}
	if n := len(w.stale.bufs); n > 0 {
		b := w.stale.bufs[w.rng.Intn(n)]
		if b.Bytes() != nil {
			w.t.Errorf("worker %d: a spent Buffer still exposes bytes", w.id)
		}
		b.Discard()
		if _, err := Adopt[testImage](b, 24); !errors.Is(err, ErrBufferMisuse) {
			w.t.Errorf("worker %d: Adopt of a spent Buffer = %v", w.id, err)
		}
	}
	if n := len(w.stale.ptrs); n > 0 {
		m := w.stale.ptrs[w.rng.Intn(n)]
		if err := Retain(m); !isStaleErr(err) {
			w.t.Errorf("worker %d: Retain through a stale pointer = %v", w.id, err)
		}
		if _, err := Release(m); !isStaleErr(err) {
			w.t.Errorf("worker %d: Release through a stale pointer = %v", w.id, err)
		}
		if _, err := Bytes(m); !isStaleErr(err) {
			w.t.Errorf("worker %d: Bytes through a stale pointer = %v", w.id, err)
		}
		if _, err := NewRef(m); !isStaleErr(err) {
			w.t.Errorf("worker %d: NewRef through a stale pointer = %v", w.id, err)
		}
		if _, err := Clone(m); !isStaleErr(err) {
			w.t.Errorf("worker %d: Clone through a stale pointer = %v", w.id, err)
		}
		// A field pointer: the descriptor lives in quarantined memory, so
		// reading it is safe and growing through it must be refused.
		m.Data.Count = 0
		if err := m.Data.Resize(8); !isStaleErr(err) {
			w.t.Errorf("worker %d: Resize through a stale field pointer = %v", w.id, err)
		}
	}
}

func (w *recycleWorker) run(steps int) {
	ops := []func(){
		w.opNew, w.opNew, w.opAdopt, w.opRetain, w.opRelease, w.opRelease, w.opNewRef,
		w.opCollect, w.opRefRetain, w.opRefRelease, w.opRefRelease, w.opPublish,
		w.opClone, w.opGrow, w.opGrow, w.opVerify, w.opPokeStale,
	}
	for i := 0; i < steps && !w.t.Failed(); i++ {
		if len(w.msgs) > 32 { // keep the live set small so records recycle quickly
			w.opRelease()
			continue
		}
		ops[w.rng.Intn(len(ops))]()
	}
}

// finish releases everything the worker still holds.
func (w *recycleWorker) finish() {
	for w.owned() != nil {
		w.opRelease()
	}
	w.opCollect()
	for len(w.foreign) > 0 {
		w.opRefRelease()
	}
	w.opPokeStale()
}

func runRecycleModel(t *testing.T, seed int64, debug bool) {
	SetLifecycleDebug(debug)
	defer SetLifecycleDebug(false)
	liveBefore := LiveMessages()

	const workers, steps = 4, 1500
	mgr := NewManager()
	mail := make([]chan sharedRef, workers)
	for i := range mail {
		mail[i] = make(chan sharedRef, 16) // a short backlog; a full box keeps the reference with its sender
	}
	ws := make([]*recycleWorker, workers)
	var wg sync.WaitGroup
	for i := range ws {
		ws[i] = &recycleWorker{
			t: t, rng: rand.New(rand.NewSource(seed*31 + int64(i))),
			mgr: mgr, debug: debug, mail: mail, id: i,
		}
		wg.Add(1)
		go func(w *recycleWorker) {
			defer wg.Done()
			w.run(steps)
			w.finish()
		}(ws[i])
	}
	wg.Wait()
	// References mailed after their addressee finished.
	for _, w := range ws {
		w.finish()
	}

	if st := mgr.Stats(); st.Live != 0 || st.BytesLive != 0 || st.Allocs != st.Frees {
		t.Errorf("seed %d debug=%v: manager not drained: %+v", seed, debug, st)
	}
	if n := LiveMessages(); n != liveBefore {
		t.Errorf("seed %d debug=%v: %d messages live, %d before the run", seed, debug, n, liveBefore)
	}
	if err := CheckIndexInvariants(); err != nil {
		t.Errorf("seed %d debug=%v: %v", seed, debug, err)
	}
}

// FuzzRecycledRecordSafety runs the model from the seed corpus under
// `go test` (and `-race`), and from generated seeds under `make fuzz`.
func FuzzRecycledRecordSafety(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(runRecycleModel)
}
