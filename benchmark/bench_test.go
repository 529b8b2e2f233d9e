package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"rossf/internal/msg"
	"rossf/internal/ros"
)

// smokeConfig is a 200 ms run of one workload with every metric on.
func smokeConfig(t *testing.T, wl workload) config {
	return config{wl: wl, seed: 7, measure: 200 * time.Millisecond, warmup: 50 * time.Millisecond,
		trace: traceBoth, setups: 2, outDir: t.TempDir(), shmDir: "/dev/shm"}
}

func byName(ms []metric) map[string]float64 {
	out := map[string]float64{}
	for _, m := range ms {
		out[m.Name] = m.Value
	}
	return out
}

// TestSmoke runs every workload briefly and holds the output to
// BENCHMARK.json: the same workloads, every metric once, legal names,
// no failed delivery, and the batching signature each workload exists
// to show.
func TestSmoke(t *testing.T) {
	var c contract
	if err := readJSON("../BENCHMARK.json", &c); err != nil {
		t.Fatal(err)
	}
	legal := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	// BENCHMARK.json names the workloads the driver gates: some of the
	// program's, described in the same words.
	for _, cw := range c.Workloads {
		if wl, ok := findWorkload(cw.Name); !ok || cw.Why != wl.why {
			t.Errorf("BENCHMARK.json workload %q (%q): the program has %q", cw.Name, cw.Why, wl.why)
		}
	}
	for _, wl := range workloads {
		if !legal.MatchString(wl.name) {
			t.Errorf("workload name %q is not legal", wl.name)
		}
	}

	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			cfg := smokeConfig(t, wl)
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("failed %d of %d attempted", res.failed, res.attempted)
			}

			want := map[string]bool{}
			for _, m := range c.EndToEnd {
				want[m.Name] = true
			}
			for _, m := range c.PerLayer {
				want[m.Name] = true
			}
			seen := map[string]int{}
			for _, m := range append(res.endToEnd, res.perLayer...) {
				seen[m.Name]++
				if !legal.MatchString(m.Name) || !want[m.Name] {
					t.Errorf("emitted metric %q is illegal or not in BENCHMARK.json", m.Name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v", m.Name, m.Value)
				}
			}
			for name := range want {
				if seen[name] != 1 {
					t.Errorf("metric %q emitted %d times, want once", name, seen[name])
				}
			}
			for _, m := range res.endToEnd {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, m.Value)
				}
			}

			layer := byName(res.perLayer)
			fpw := layer["ros.egress.frames_per_write"]
			switch {
			case wl.transport == ros.TransportInproc:
				if fpw != 0 {
					t.Errorf("inproc ran the egress path: frames_per_write = %v", fpw)
				}
			case wl.window == 1:
				if fpw != 1 {
					t.Errorf("lockstep frames_per_write = %v, want exactly 1", fpw)
				}
			default:
				if fpw <= 1 {
					t.Errorf("stream frames_per_write = %v, want > 1: batching did not engage", fpw)
				}
			}
			if s := layer["trace.self_sum_share"]; s < 0.95 || s > 1.05 {
				t.Errorf("self times sum to %.3f of the msg span, want within 5%%", s)
			}
			if wl.masked && layer["fieldwire.sparse_share"] != 1 {
				t.Errorf("masked workload sparse_share = %v, want 1", layer["fieldwire.sparse_share"])
			}
			if (wl.name == "tcp_1m_regular") != (layer["ser.serialize_us"] > 0) {
				t.Errorf("ser.serialize_us = %v on %s", layer["ser.serialize_us"], wl.name)
			}

			var spans []struct {
				Name   string `json:"name"`
				Parent string `json:"parent"`
				Start  int64  `json:"start_ns"`
				End    int64  `json:"end_ns"`
			}
			if err := readJSON(filepath.Join(cfg.outDir, "trace_"+wl.name+".json"), &spans); err != nil {
				t.Fatal(err)
			}
			if len(spans) == 0 || len(spans)%len(spanNames) != 0 {
				t.Errorf("trace file holds %d spans, want a positive multiple of %d", len(spans), len(spanNames))
			}
			for _, s := range spans {
				if s.End < s.Start || (s.Name == spanMsg) != (s.Parent == "") {
					t.Fatalf("malformed span %+v", s)
				}
			}
		})
	}
}

// TestSummaryEndsWithNullClaim checks the written summary: the benchmark
// claims no gain.
func TestSummaryEndsWithNullClaim(t *testing.T) {
	cfg := smokeConfig(t, workloads[0])
	cfg.trace, cfg.measure = traceOff, 50*time.Millisecond
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout, _ = os.Open(os.DevNull)
	report(cfg, hostInfo(), res)
	os.Stdout = stdout
	b, err := os.ReadFile(filepath.Join(cfg.outDir, "summary_"+cfg.wl.name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(b)), "\"claim\": null\n}") {
		t.Errorf("summary does not end with \"claim\": null:\n%s", b)
	}
	var s summary
	if err := json.Unmarshal(b, &s); err != nil || len(s.EndToEnd) == 0 {
		t.Errorf("summary does not read back: %v", err)
	}
}

// TestShmFailsWithoutSegmentDir points the shm workloads at a segment
// directory that does not exist: they must report a failure, not skip
// and not fall back to TCP.
func TestShmFailsWithoutSegmentDir(t *testing.T) {
	for _, name := range []string{"shm_4k_lockstep", "shm_1m_lockstep"} {
		wl, _ := findWorkload(name)
		cfg := smokeConfig(t, wl)
		cfg.shmDir = filepath.Join(t.TempDir(), "missing")
		res := runOrFail(cfg)
		if res.failed != 1 || res.attempted != 1 {
			t.Errorf("%s without a segment dir: failed %d of %d, want 1 of 1", name, res.failed, res.attempted)
		}
	}
}

// stubKind is the inproc workload with no middleware behind Publish: the
// callback runs directly. What it allocates, the harness allocates.
type stubKind struct {
	h    *harness
	d    delivery
	drop func(seq uint32) bool
}

func (k *stubKind) construct(seq uint32, stamp msg.Time) error {
	k.d = delivery{seq: seq, stamp: stamp, headerOK: true, data: k.h.slab}
	return nil
}

func (k *stubKind) publish() error {
	if k.drop == nil || !k.drop(k.d.seq) {
		k.h.deliver(k.d)
	}
	return nil
}

func (k *stubKind) release() error { return nil }

// TestHarnessAllocatesNothingPerMessage pins generator hygiene: latency
// ring and span ring are preallocated, so allocs_per_msg is the
// middleware's alone, traced or not.
func TestHarnessAllocatesNothingPerMessage(t *testing.T) {
	h := newHarness(1, ringSamples)
	h.newInputs(3, img4k.bytes())
	k := &stubKind{h: h}
	for _, traced := range []bool{false, true} {
		w := h.runWindow(k, 100*time.Millisecond, 2, traced)
		for _, r := range w.reps {
			if r.failed != 0 || r.delivered < 1000 {
				t.Fatalf("traced=%v: delivered %d, failed %d", traced, r.delivered, r.failed)
			}
			if per := float64(r.mallocs) / float64(r.delivered); per > 0.01 {
				t.Errorf("traced=%v: harness allocates %.4f objects per message, want 0", traced, per)
			}
		}
	}
}

// TestCheckCatchesBadDeliveries feeds the callback each kind of wrong
// message once.
func TestCheckCatchesBadDeliveries(t *testing.T) {
	h := newHarness(1, ringSamples)
	h.newInputs(3, img4k.bytes())
	good := func() delivery {
		h.seq++
		h.recs[h.seq%recRing].t0.Store(int64(h.seq) * 1000)
		return delivery{seq: h.seq, stamp: stampOf(int64(h.seq) * 1000), headerOK: true, data: h.slab}
	}
	h.deliver(good())
	if h.delivered.Load() != 1 {
		t.Fatalf("a correct delivery was rejected")
	}
	cases := map[string]func(d *delivery){
		"stale seq":   func(d *delivery) { d.seq-- },
		"wrong stamp": func(d *delivery) { d.stamp.Nsec++ },
		"wrong shape": func(d *delivery) { d.headerOK = false },
		"short data":  func(d *delivery) { d.data = d.data[:len(d.data)-1] },
		"wrong stripe": func(d *delivery) {
			d.data = append([]byte(nil), d.data...)
			d.data[h.offsets[2]+5] ^= 1
		},
	}
	for name, breakIt := range cases {
		d := good()
		breakIt(&d)
		h.deliver(d)
		if h.delivered.Load() != 1 {
			t.Errorf("%s passed the check", name)
		}
	}
}

// TestTimeoutCountsAsFailure drops every message: each one times out,
// the window still ends on time, and every attempt is counted failed.
func TestTimeoutCountsAsFailure(t *testing.T) {
	h := newHarness(1, ringSamples)
	h.timeout = 5 * time.Millisecond
	h.newInputs(3, img4k.bytes())
	k := &stubKind{h: h, drop: func(seq uint32) bool { return seq%2 == 0 }}
	start := time.Now()
	w := h.runWindow(k, 100*time.Millisecond, 1, false)
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("window took %v", el)
	}
	r := w.reps[0]
	if r.failed == 0 || r.delivered == 0 || r.failed+r.delivered != r.attempted {
		t.Errorf("attempted %d, delivered %d, failed %d", r.attempted, r.delivered, r.failed)
	}
}

// TestSelfTime checks the definition: duration minus the part covered by
// child spans, with overlapping children counted once and clipped to
// the parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "p", Start: 0, End: 100},
		{Name: "a", Start: 10, End: 40, Parent: "p"},
		{Name: "b", Start: 30, End: 60, Parent: "p"},
		{Name: "c", Start: 90, End: 130, Parent: "p"},
		{Name: "d", Start: 35, End: 38, Parent: "a"},
	}
	for i, want := range []int64{40, 27, 30, 40, 3} {
		if got := selfTime(spans, i); got != want {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want)
		}
	}
}

// TestIQRShareMatchesPython pins the spread formula to Python's
// statistics.quantiles(v, n=4): [2.75, 5.5, 8.25] for 1..10.
func TestIQRShareMatchesPython(t *testing.T) {
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got := iqrShare(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("iqrShare = %v, want 1", got)
	}
}
