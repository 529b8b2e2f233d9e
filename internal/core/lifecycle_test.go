package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rossf/internal/msgtest"
)

// TestCloneSurvivesConcurrentFinalRelease is the regression test for the
// Clone TOCTOU: Clone used to re-resolve the record after Bytes ("cannot
// fail after Bytes") and nil-deref'd r.mgr when a concurrent final
// Release destructed the message in between. Post-fix, Clone holds a
// retain across the whole operation and either returns a valid
// independent copy or ErrDestructed — never a panic.
func TestCloneSurvivesConcurrentFinalRelease(t *testing.T) {
	for i := 0; i < 300; i++ {
		img := newTestImage(t)
		img.Height = 7
		if err := img.Data.Resize(64); err != nil {
			t.Fatalf("Resize: %v", err)
		}

		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		var cloned *testImage
		var cloneErr error
		go func() {
			defer wg.Done()
			<-start
			cloned, cloneErr = Clone(img)
		}()
		go func() {
			defer wg.Done()
			<-start
			Release(img) // the final developer reference
		}()
		close(start)
		wg.Wait()

		switch {
		case cloneErr == nil:
			if cloned.Height != 7 || cloned.Data.Len() != 64 {
				t.Fatalf("iter %d: clone content %d/%d, want 7/64", i, cloned.Height, cloned.Data.Len())
			}
			Release(cloned)
		case errors.Is(cloneErr, ErrDestructed), errors.Is(cloneErr, ErrNotManaged):
			// The release won the race (ErrNotManaged when it fully
			// destructed before Clone resolved the record); a clean error
			// is the contract — never a panic.
		default:
			t.Fatalf("iter %d: Clone: %v", i, cloneErr)
		}
	}
}

// TestCloneAfterGrowCopiesWholeMessage pins the part of the Clone fix
// that guards against grow: the arena copy reads r.used under the
// record lock, so a grow that just extended the used region cannot
// leave Clone copying a truncated prefix. (Content writes concurrent
// with Clone remain single-writer by design, like any plain struct
// field assignment.)
func TestCloneAfterGrowCopiesWholeMessage(t *testing.T) {
	m := NewManager()
	img, err := NewIn[testImage](m, 16<<10)
	if err != nil {
		t.Fatalf("NewIn: %v", err)
	}
	// Grow well past the skeleton so used-size bookkeeping matters.
	if err := img.Data.Resize(8 << 10); err != nil {
		t.Fatalf("Resize: %v", err)
	}
	img.Height = 42
	for i := 0; i < img.Data.Len(); i += 997 {
		*img.Data.At(i) = byte(i % 251)
	}

	c, err := Clone(img)
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	if c == img {
		t.Fatalf("Clone aliased the original")
	}
	if c.Height != 42 || c.Data.Len() != 8<<10 {
		t.Fatalf("clone skeleton %d/%d, want 42/%d", c.Height, c.Data.Len(), 8<<10)
	}
	for i := 0; i < c.Data.Len(); i += 997 {
		if *c.Data.At(i) != byte(i%251) {
			t.Fatalf("clone payload diverged at %d", i)
		}
	}
	// The copies are independent: destructing one leaves the other live.
	if _, err := Release(img); err != nil {
		t.Fatalf("Release(img): %v", err)
	}
	if c.Data.Len() != 8<<10 || *c.Data.At(997) != byte(997%251) {
		t.Fatalf("clone corrupted by releasing the original")
	}
	if _, err := Release(c); err != nil {
		t.Fatalf("Release(clone): %v", err)
	}
}

// TestRefSafeAfterDestruct is the regression test for the Ref misuse
// panics: Bytes/State used to slice the nil arena of a destructed
// record, and a double Release raced other holders' counts. Now they
// degrade to nil / StateDestructed / ErrDestructed deterministically.
func TestRefSafeAfterDestruct(t *testing.T) {
	img := newTestImage(t)
	ref, err := NewRef(img)
	if err != nil {
		t.Fatalf("NewRef: %v", err)
	}
	if _, err := Release(img); err != nil {
		t.Fatalf("Release(img): %v", err)
	}
	// ref now holds the last reference.
	if got := ref.Bytes(); got == nil {
		t.Fatalf("Bytes on a live ref = nil")
	}
	destructed, err := ref.Release()
	if err != nil || !destructed {
		t.Fatalf("final ref.Release = (%v, %v), want (true, nil)", destructed, err)
	}
	if got := ref.Bytes(); got != nil {
		t.Errorf("Bytes after release = %d bytes, want nil", len(got))
	}
	if st := ref.State(); st != StateDestructed {
		t.Errorf("State after release = %v, want Destructed", st)
	}
	if _, err := ref.Release(); !errors.Is(err, ErrDestructed) {
		t.Errorf("double Release = %v, want ErrDestructed", err)
	}
}

// TestRefDoubleReleaseDoesNotStealOtherRefs: a second Release on an
// already-released Ref must not decrement the count another holder
// still owns.
func TestRefDoubleReleaseDoesNotStealOtherRefs(t *testing.T) {
	img := newTestImage(t)
	ref1, _ := NewRef(img)
	ref2, _ := NewRef(img) // refs: developer + ref1 + ref2 = 3

	if _, err := ref1.Release(); err != nil {
		t.Fatalf("ref1.Release: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ref1.Release(); !errors.Is(err, ErrDestructed) {
			t.Fatalf("repeated ref1.Release = %v, want ErrDestructed", err)
		}
	}
	// ref2 and the developer reference must both still be intact.
	if n, err := RefCountOf(img); err != nil || n != 2 {
		t.Fatalf("refs = %d (%v), want 2", n, err)
	}
	if _, err := ref2.Release(); err != nil {
		t.Fatalf("ref2.Release: %v", err)
	}
	if destructed, err := Release(img); err != nil || !destructed {
		t.Fatalf("final Release = (%v, %v), want (true, nil)", destructed, err)
	}
}

// TestStaleGenerationDetected is the regression test for the
// address-reuse ABA hazard: a String/Vector descriptor outliving its
// message used to silently grow whichever message the pool reissued at
// the same base address. Under lifecycle-debug mode the destructed
// arena is quarantined and the dangling access fails with
// ErrStaleGeneration and a TraceStale event.
func TestStaleGenerationDetected(t *testing.T) {
	SetLifecycleDebug(true)
	defer SetLifecycleDebug(false)

	var stale atomic.Uint64
	SetTrace(func(ev TraceEvent) {
		if ev.Op == TraceStale {
			stale.Add(1)
		}
	})
	defer SetTrace(nil)

	img := newTestImage(t)
	dangling := &img.Data // descriptor pointer into the arena
	if destructed, err := Release(img); err != nil || !destructed {
		t.Fatalf("Release = (%v, %v), want (true, nil)", destructed, err)
	}

	err := dangling.Resize(32)
	if !errors.Is(err, ErrStaleGeneration) {
		t.Fatalf("dangling Resize = %v, want ErrStaleGeneration", err)
	}
	if stale.Load() == 0 {
		t.Errorf("no TraceStale event emitted for the dangling access")
	}

	// Without debug mode the same lookup miss is just unmanaged.
	SetLifecycleDebug(false)
	img2 := newTestImage(t)
	dangling2 := &img2.Data
	Release(img2)
	if err := dangling2.Resize(32); errors.Is(err, ErrStaleGeneration) {
		t.Errorf("debug off: got ErrStaleGeneration, want ErrNotManaged/ErrDestructed class")
	}
}

// TestAddressReuseGetsFreshGeneration proves the generation counter
// distinguishes arena incarnations even when the pool reissues the same
// base address — the ambiguity at the heart of the ABA hazard.
func TestAddressReuseGetsFreshGeneration(t *testing.T) {
	type genEvent struct {
		base uintptr
		gen  uint64
	}
	var mu sync.Mutex
	var allocs []genEvent
	SetTrace(func(ev TraceEvent) {
		if ev.Op == TraceAlloc {
			mu.Lock()
			allocs = append(allocs, genEvent{ev.Base, ev.Gen})
			mu.Unlock()
		}
	})
	defer SetTrace(nil)

	seen := map[uintptr][]uint64{}
	for i := 0; i < 64; i++ {
		img := newTestImage(t)
		Release(img)
	}
	mu.Lock()
	for _, ev := range allocs {
		seen[ev.base] = append(seen[ev.base], ev.gen)
	}
	mu.Unlock()
	reused := false
	for _, gens := range seen {
		if len(gens) > 1 {
			reused = true
			for i := 1; i < len(gens); i++ {
				if gens[i] == gens[i-1] {
					t.Fatalf("same base reissued with identical generation %d", gens[i])
				}
			}
		}
	}
	if !reused {
		msgtest.NotVerified(t, "the pool reused no base address in this run, so there was nothing to tell apart")
	}
}

// TestPerStateCountsAndHighWaterMarks exercises the new Manager
// life-cycle gauges on a private manager.
func TestPerStateCountsAndHighWaterMarks(t *testing.T) {
	m := NewManager()
	a, err := NewIn[testImage](m, 4096)
	if err != nil {
		t.Fatalf("NewIn: %v", err)
	}
	b, err := NewIn[testImage](m, 4096)
	if err != nil {
		t.Fatalf("NewIn: %v", err)
	}

	st := m.Stats()
	if st.StateAllocated != 2 || st.StatePublished != 0 {
		t.Fatalf("after New x2: allocated=%d published=%d, want 2/0", st.StateAllocated, st.StatePublished)
	}
	if st.MaxLive != 2 || st.Live != 2 {
		t.Fatalf("live=%d maxLive=%d, want 2/2", st.Live, st.MaxLive)
	}
	if st.MaxBytesLive < st.BytesLive || st.BytesLive <= 0 {
		t.Fatalf("bytesLive=%d maxBytesLive=%d", st.BytesLive, st.MaxBytesLive)
	}

	if err := MarkPublished(a); err != nil {
		t.Fatalf("MarkPublished: %v", err)
	}
	st = m.Stats()
	if st.StateAllocated != 1 || st.StatePublished != 1 {
		t.Fatalf("after publish: allocated=%d published=%d, want 1/1", st.StateAllocated, st.StatePublished)
	}
	// Re-publishing must not double-count.
	if err := MarkPublished(a); err != nil {
		t.Fatalf("MarkPublished again: %v", err)
	}
	st = m.Stats()
	if st.StateAllocated != 1 || st.StatePublished != 1 {
		t.Fatalf("after re-publish: allocated=%d published=%d, want 1/1", st.StateAllocated, st.StatePublished)
	}

	Release(a)
	Release(b)
	st = m.Stats()
	if st.StateAllocated != 0 || st.StatePublished != 0 || st.Live != 0 || st.BytesLive != 0 {
		t.Fatalf("after release: %+v, want all-zero live gauges", st)
	}
	if st.MaxLive != 2 {
		t.Fatalf("maxLive=%d survived release, want 2", st.MaxLive)
	}
}

// TestTraceLifecycleOrder captures the Allocated→Published→Destructed
// transitions of one message through the trace hook.
func TestTraceLifecycleOrder(t *testing.T) {
	var mu sync.Mutex
	var ops []TraceOp
	var base uintptr
	SetTrace(func(ev TraceEvent) {
		mu.Lock()
		defer mu.Unlock()
		if base == 0 && ev.Op == TraceAlloc {
			base = ev.Base
		}
		if ev.Base == base {
			ops = append(ops, ev.Op)
		}
	})
	defer SetTrace(nil)

	img := newTestImage(t)
	if err := img.Data.Resize(16); err != nil {
		t.Fatalf("Resize: %v", err)
	}
	if err := MarkPublished(img); err != nil {
		t.Fatalf("MarkPublished: %v", err)
	}
	Release(img)

	mu.Lock()
	defer mu.Unlock()
	want := []TraceOp{TraceAlloc, TraceGrow, TracePublish, TraceDestruct}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", ops, want)
		}
	}
}

// TestTracingDisabledIsCheap sanity-checks that the disabled hook path
// takes no timestamp: a full life-cycle with no hook installed must not
// invoke anything (smoke test via TracingEnabled).
func TestTracingDisabledIsCheap(t *testing.T) {
	if TracingEnabled() {
		t.Fatalf("tracing unexpectedly enabled at test start")
	}
	img := newTestImage(t)
	MarkPublished(img) //nolint:errcheck
	Release(img)
	// No assertion beyond "did not crash": the cost property is pinned
	// by the allocation-equality test in internal/ros.
	_ = time.Now()
}
