package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"rossf/internal/core"
)

type leakImage struct {
	Height uint32
	Width  uint32
	Data   core.Vector[uint8]
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Fatalf("nil Counter.Load = %d", c.Load())
	}
	var g *Gauge
	g.Add(3)
	g.Set(-1)
	if g.Load() != 0 {
		t.Fatalf("nil Gauge.Load = %d", g.Load())
	}
	var r *Registry
	if r.Publisher("x") != nil || r.Subscriber("x") != nil || r.Service("x") != nil {
		t.Fatalf("nil Registry returned non-nil instruments")
	}
	if got := r.Topics(); got != nil {
		t.Fatalf("nil Registry.Topics = %v", got)
	}
	// Snapshot on a nil registry still reports core stats.
	snap := r.Snapshot()
	if snap.Publishers == nil || snap.Subscribers == nil || snap.Services == nil {
		t.Fatalf("nil Registry.Snapshot maps not initialised")
	}
}

func TestCountersAndGauges(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("Counter = %d, want 8000", c.Load())
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Load() != 7 {
		t.Fatalf("Gauge = %d, want 7", g.Load())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if st := h.Stats(); st.Count != 0 || st.P99 != 0 {
		t.Fatalf("empty histogram stats = %+v", st)
	}
	// 1..100ms uniformly: quantiles are unambiguous.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	st := h.Stats()
	if st.Count != 100 {
		t.Fatalf("Count = %d, want 100", st.Count)
	}
	if st.Min != 1*time.Millisecond || st.Max != 100*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", st.Min, st.Max)
	}
	check := func(name string, got, lo, hi time.Duration) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s = %v, want within [%v, %v]", name, got, lo, hi)
		}
	}
	check("P50", st.P50, 49*time.Millisecond, 52*time.Millisecond)
	check("P95", st.P95, 94*time.Millisecond, 97*time.Millisecond)
	check("P99", st.P99, 98*time.Millisecond, 100*time.Millisecond)
}

func TestHistogramRingRetainsNewest(t *testing.T) {
	var h Histogram
	// Overflow the ring with old small samples, then fill it entirely
	// with large ones: stats must reflect only the retained window.
	for i := 0; i < histRing; i++ {
		h.Observe(1 * time.Microsecond)
	}
	for i := 0; i < histRing; i++ {
		h.Observe(1 * time.Second)
	}
	st := h.Stats()
	if st.Min != time.Second {
		t.Fatalf("Min = %v after window rollover, want 1s", st.Min)
	}
	if st.Count != 2*histRing {
		t.Fatalf("Count = %d, want %d (total observations)", st.Count, 2*histRing)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	p1 := r.Publisher("/a")
	p2 := r.Publisher("/a")
	if p1 != p2 {
		t.Fatalf("Publisher not memoised")
	}
	s1 := r.Subscriber("/a")
	if s1 == nil || s1 != r.Subscriber("/a") {
		t.Fatalf("Subscriber not memoised")
	}
	v1 := r.Service("/srv")
	if v1 == nil || v1 != r.Service("/srv") {
		t.Fatalf("Service not memoised")
	}

	p1.Messages.Add(3)
	p1.Bytes.Add(1024)
	s1.Drops.Inc()
	s1.Latency.Observe(2 * time.Millisecond)
	v1.Calls.Inc()
	v1.Errors.Inc()

	snap := r.Snapshot()
	if snap.Publishers["/a"].Messages != 3 || snap.Publishers["/a"].Bytes != 1024 {
		t.Fatalf("pub snapshot = %+v", snap.Publishers["/a"])
	}
	if snap.Subscribers["/a"].Drops != 1 || snap.Subscribers["/a"].Latency.Count != 1 {
		t.Fatalf("sub snapshot = %+v", snap.Subscribers["/a"])
	}
	if snap.Services["/srv"].Calls != 1 || snap.Services["/srv"].Errors != 1 {
		t.Fatalf("svc snapshot = %+v", snap.Services["/srv"])
	}

	topics := r.Topics()
	if len(topics) != 1 || topics[0] != "/a" {
		t.Fatalf("Topics = %v, want [/a]", topics)
	}

	// The snapshot must round-trip as JSON (the /metrics contract).
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.Publishers["/a"].Messages != 3 {
		t.Fatalf("JSON round-trip lost data: %+v", back.Publishers["/a"])
	}
}

func TestSnapshotTracksCoreLifecycle(t *testing.T) {
	r := NewRegistry()
	before := r.Snapshot().Core

	img, err := core.New[leakImage]()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mid := r.Snapshot().Core
	if mid.Live != before.Live+1 || mid.StateAllocated != before.StateAllocated+1 {
		t.Fatalf("snapshot did not observe the allocation: before=%+v mid=%+v", before, mid)
	}
	core.Release(img)
	after := r.Snapshot().Core
	if after.Live != before.Live || after.Frees != mid.Frees+1 {
		t.Fatalf("snapshot did not observe the free: before=%+v after=%+v", before, after)
	}
	// The freed arena went back to its free list with its storage.
	if after.BytesPooled <= mid.BytesPooled || after.Fresh < before.Fresh {
		t.Fatalf("snapshot did not observe the recycle: mid=%+v after=%+v", mid, after)
	}
}

func TestGraphSnapshot(t *testing.T) {
	r := NewRegistry()
	g := r.Graph()
	g.MasterReconnects.Inc()
	g.Replays.Add(2)
	g.ResyncLatency.Observe(3 * time.Millisecond)
	g.GhostExpiries.Inc()
	g.MalformedLines.Add(4)
	g.Degraded.Add(1)

	snap := r.Snapshot().Graph
	if snap.MasterReconnects != 1 || snap.Replays != 2 || snap.GhostExpiries != 1 ||
		snap.MalformedLines != 4 || snap.Degraded != 1 || snap.Resync.Count != 1 {
		t.Fatalf("graph snapshot = %+v", snap)
	}
	g.Degraded.Add(-1)
	if got := r.Snapshot().Graph.Degraded; got != 0 {
		t.Fatalf("degraded gauge after recovery = %d, want 0", got)
	}

	// A nil registry's accessor must not panic (disabled metrics path;
	// callers substitute a private sink for the nil).
	var nilReg *Registry
	if nilReg.Graph() != nil {
		t.Fatal("nil registry returned non-nil graph stats")
	}

	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	for _, key := range []string{"master_reconnects", "replays", "resync", "ghost_expiries", "malformed_lines", "degraded"} {
		if !strings.Contains(string(b), key) {
			t.Fatalf("snapshot JSON missing %q: %s", key, b)
		}
	}
}

func TestTracerRingAndCounts(t *testing.T) {
	tr := EnableTracing(64)
	defer tr.Stop()

	img, err := core.New[leakImage]()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := img.Data.Resize(8); err != nil {
		t.Fatalf("Resize: %v", err)
	}
	core.MarkPublished(img) //nolint:errcheck
	core.Release(img)

	if tr.Count(core.TraceAlloc) == 0 || tr.Count(core.TraceGrow) == 0 ||
		tr.Count(core.TracePublish) == 0 || tr.Count(core.TraceDestruct) == 0 {
		t.Fatalf("missing life-cycle events: alloc=%d grow=%d publish=%d destruct=%d",
			tr.Count(core.TraceAlloc), tr.Count(core.TraceGrow),
			tr.Count(core.TracePublish), tr.Count(core.TraceDestruct))
	}
	evs := tr.Events()
	if len(evs) < 4 {
		t.Fatalf("Events returned %d entries, want >= 4", len(evs))
	}
	for _, ev := range evs {
		if Format(ev) == "" {
			t.Fatalf("Format returned empty string for %+v", ev)
		}
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := EnableTracing(64)
	defer tr.Stop()
	for i := 0; i < 200; i++ {
		img, err := core.New[leakImage]()
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		core.Release(img)
	}
	if n := len(tr.Events()); n > 64 {
		t.Fatalf("ring held %d events, capacity 64", n)
	}
	if tr.Count(core.TraceAlloc) != 200 {
		t.Fatalf("alloc count = %d, want 200 (counts survive ring eviction)", tr.Count(core.TraceAlloc))
	}
}

func TestLeakGuardDetectsAndClears(t *testing.T) {
	g := NewLeakGuard()
	img, err := core.New[leakImage]()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := g.Check(50 * time.Millisecond); err == nil {
		t.Fatalf("Check passed with a live message outstanding")
	}
	core.Release(img)
	if err := g.Check(time.Second); err != nil {
		t.Fatalf("Check failed after release: %v", err)
	}
}

// recorderTB captures CheckLeaks failures instead of failing the test.
type recorderTB struct {
	mu       sync.Mutex
	errors   []string
	cleanups []func()
}

func (r *recorderTB) Helper() {}
func (r *recorderTB) Errorf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.errors = append(r.errors, format)
}
func (r *recorderTB) Cleanup(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cleanups = append(r.cleanups, f)
}
func (r *recorderTB) runCleanups() {
	r.mu.Lock()
	cs := r.cleanups
	r.cleanups = nil
	r.mu.Unlock()
	for i := len(cs) - 1; i >= 0; i-- {
		cs[i]()
	}
}

func TestCheckLeaksReportsViaCleanup(t *testing.T) {
	// Clean run: no errors recorded.
	clean := &recorderTB{}
	CheckLeaks(clean, 100*time.Millisecond)
	img, err := core.New[leakImage]()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	core.Release(img)
	clean.runCleanups()
	if len(clean.errors) != 0 {
		t.Fatalf("clean run reported: %v", clean.errors)
	}

	// Leaky run: the cleanup must flag the outstanding message.
	leaky := &recorderTB{}
	CheckLeaks(leaky, 50*time.Millisecond)
	leak, err := core.New[leakImage]()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	leaky.runCleanups()
	if len(leaky.errors) == 0 {
		t.Fatalf("leaky run reported no errors")
	}
	core.Release(leak)
}
