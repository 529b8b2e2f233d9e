// Command benchmark is the repository's one publish->callback
// benchmark: it runs a named workload against the real internal/ros
// nodes with a closed-loop generator, checks every delivery, and prints
// every metric by name with its unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"rossf/internal/core"
	"rossf/internal/wire"
)

// Tracing modes of one run.
const (
	traceOff  = 0  // untraced window only: the end-to-end metrics
	traceOn   = 1  // a short untraced reference, then the traced window: the per-layer metrics
	traceBoth = -1 // --trace not given: the full untraced window, then the traced one; every metric
)

// config is one run.
type config struct {
	wl      workload
	seed    uint64
	measure time.Duration // --seconds
	warmup  time.Duration
	trace   int
	setups  int // set-ups beside the measured topology's; setup_s is the median of them all
	outDir  string
	shmDir  string
}

// metric is one named value. N is the number of samples (latencies,
// deliveries, iterations) behind it, 0 when that has no meaning.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n,omitempty"`
}

// result is everything one run reports.
type result struct {
	attempted, failed int64
	endToEnd          []metric
	perLayer          []metric
	selfUs            map[string]float64 // median self time per span name
}

func main() {
	// One P: every hand-off between the publisher, the egress writer and
	// the subscriber is a goroutine switch on one thread. With two, each
	// message crosses vCPUs through a futex wake-up whose cost is the
	// host's, not the middleware's, and the second P spends as much CPU in
	// the scheduler as the middleware uses (README.md).
	runtime.GOMAXPROCS(1)
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed of the pixel slab and the checked stripe offsets")
	seconds := flag.Float64("seconds", 28, "length of the measured window")
	trace := flag.Int("trace", traceBoth, "0: end-to-end metrics only; 1: per-layer metrics from a traced window; unset: both")
	out := flag.String("out", "benchmark/out", "directory for trace_<workload>.json and summary_<workload>.json")
	list := flag.Bool("list", false, "print the workload names, one per line")
	compare := flag.Bool("compare", false, "compare the summaries in two --out directories given as arguments against the bounds in BENCHMARK.json")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(workloadNames(), "\n"))
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: --compare DIR_A DIR_B")
		}
		os.Exit(compareSets(flag.Arg(0), flag.Arg(1)))
	}
	wl, ok := findWorkload(*name)
	if !ok {
		fatal("unknown --workload %q; choose one of: %s", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || *trace < traceBoth || *trace > traceOn {
		fatal("--seconds must be positive and --trace 0 or 1")
	}
	cfg := config{wl: wl, seed: *seed, measure: time.Duration(*seconds * float64(time.Second)),
		warmup: time.Second, trace: *trace, setups: 200, outDir: *out, shmDir: "/dev/shm"}
	if cfg.trace == traceOn {
		cfg.setups = 0 // setup_s is an end-to-end metric; the traced run does not report it
	}

	host := hostInfo()
	fmt.Printf("# %s seed=%d seconds=%g trace=%d loopback only, no real link\n", wl.name, cfg.seed, *seconds, cfg.trace)
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d %s kernel=%s /dev/shm free=%d B\n",
		host.NProc, host.GoMaxProcs, host.GoVersion, host.Kernel, host.ShmFreeBytes)
	res := runOrFail(cfg)
	report(cfg, host, res)
	if res.failed > 0 {
		os.Exit(1)
	}
}

func fatal(format string, a ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", a...)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runOrFail is run with an error turned into the result it stands for:
// a workload that cannot run has failed once out of one attempt. It is
// never skipped.
func runOrFail(cfg config) result {
	res, err := run(cfg)
	if err != nil {
		fmt.Printf("# FAILED: %v\n", err)
		return result{attempted: 1, failed: 1}
	}
	return res
}

// run sets the workload up, warms it, and measures it.
func run(cfg config) (result, error) {
	wl := cfg.wl
	h := newHarness(wl.window, ringSamples)

	// One set-up: generate the inputs, bring up master, nodes, publisher
	// and subscriber, negotiate, deliver one verified message.
	setupS := make([]float64, 0, 1+cfg.setups)
	setUp := func(on *harness) (*topology, error) {
		start := time.Now()
		on.newInputs(cfg.seed, wl.img.bytes())
		topo, err := setup(wl, on, cfg.shmDir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := on.firstDelivery(topo.kind); err != nil {
			topo.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		return topo, nil
	}
	topo, err := setUp(h)
	if err != nil {
		return result{}, err
	}
	defer topo.close()

	untraced, traced := cfg.measure, time.Duration(0)
	switch cfg.trace {
	case traceOn:
		untraced, traced = cfg.measure/3, cfg.measure*2/3
	case traceBoth:
		traced = cfg.measure * 3 / 8
	}

	// The other set-ups are spread over the untraced window, a share
	// ahead of every repetition, each on a topology of its own that is
	// closed again: set up in one go they take a tenth of a second, and
	// setup_s would be whatever the host did in that tenth.
	h.runWindow(topo.kind, cfg.warmup, 1, false)
	nreps := repsIn(untraced)
	beside := newHarness(wl.window, 1)
	var setupErr error
	h.beforeRep = func() {
		for range (cfg.setups + nreps - 1) / nreps {
			t, err := setUp(beside)
			if err != nil {
				setupErr = err
				return
			}
			t.close()
		}
	}
	u := h.runWindow(topo.kind, untraced, nreps, false)
	h.beforeRep = nil
	if setupErr != nil {
		return result{}, setupErr
	}
	res := result{attempted: u.attempted(), failed: u.failed()}
	if cfg.trace != traceOn {
		res.endToEnd = endToEnd(u, setupS)
	}
	if traced == 0 {
		return res, nil
	}

	// The traced window reuses the latency ring, so everything the
	// untraced window contributes is reduced to numbers first.
	uP50, tail := u.latencyP50(), tailOf(u)
	c0, s0, crc0 := coreStats(topo), topo.reg.Snapshot(), wire.ChecksumBytes()
	t := h.runWindow(topo.kind, traced, repsIn(traced), true)
	c1, s1, crc1 := coreStats(topo), topo.reg.Snapshot(), wire.ChecksumBytes()
	res.attempted += t.attempted()
	res.failed += t.failed()

	ts, err := summarizeTrace(h, t, filepath.Join(cfg.outDir, "trace_"+wl.name+".json"))
	if err != nil {
		return res, fmt.Errorf("trace: %w", err)
	}
	res.selfUs = ts.selfUs
	side, err := sideMeasurements(topo, h.slab)
	if err != nil {
		return res, fmt.Errorf("side measurements: %w", err)
	}

	msgs := float64(t.delivered())
	perMsg := func(d uint64) float64 { return ratio(float64(d), msgs) }
	n := int64(msgs)
	spans := int64(ts.messages)
	iters := func(v float64) int64 { // behind a side measurement that ran
		if v == 0 {
			return 0
		}
		return int64(sideIters(len(h.slab)))
	}
	eg0, eg1 := s0.Egress, s1.Egress
	sh0, sh1 := s0.Shm, s1.Shm
	fw0, fw1 := s0.Fieldwire, s1.Fieldwire
	pub0, pub1 := s0.Publishers[topic], s1.Publishers[topic]
	sub0, sub1 := s0.Subscribers[topic], s1.Subscribers[topic]
	masked := float64(fw1.SparseFrames - fw0.SparseFrames + fw1.FullFrames - fw0.FullFrames)
	maskedBytes := uint64(0)
	if masked > 0 {
		maskedBytes = sub1.Bytes - sub0.Bytes
	}
	tP50 := t.latencyP50()
	res.perLayer = []metric{
		{"core.construct_us", ts.durUs[spanConstruct], "us", spans},
		{"core.release_us", ts.durUs[spanRelease], "us", spans},
		{"core.allocs_per_msg", perMsg(c1.Allocs - c0.Allocs), "count", n},
		{"core.grows_per_msg", perMsg(c1.Grows - c0.Grows), "count", n},
		{"core.max_live", float64(c1.MaxLive), "count", 0},
		{"ser.serialize_us", side.serUs, "us", iters(side.serUs)},
		{"ser.deserialize_us", side.deserUs, "us", iters(side.deserUs)},
		{"ser.wire_bytes_per_msg", side.serBytes, "B", 0},
		{"ros.publish_call_us", ts.durUs[spanPublish], "us", spans},
		{"ros.transit_us", ts.durUs[spanTransit], "us", spans},
		{"ros.callback_us", ts.durUs[spanCallback], "us", spans},
		{"ros.negotiate_ms", float64(topo.negotiate) / 1e6, "ms", 1},
		{"ros.egress.writes_per_msg", perMsg(eg1.Writes - eg0.Writes), "count", n},
		{"ros.egress.frames_per_write", ratio(float64(eg1.Frames-eg0.Frames), float64(eg1.Writes-eg0.Writes)), "count", int64(eg1.Writes - eg0.Writes)},
		{"ros.egress.coalesced_share", ratio(float64(eg1.Coalesced-eg0.Coalesced), float64(eg1.Frames-eg0.Frames)), "ratio", int64(eg1.Frames - eg0.Frames)},
		{"ros.pub.drops", float64(pub1.Drops - pub0.Drops), "count", 0},
		{"ros.sub.drops", float64(sub1.Drops - sub0.Drops), "count", 0},
		{"ros.sub.reconnects", float64(sub1.Reconnects - sub0.Reconnects), "count", 0},
		{"ros.sub.corrupt_frames", float64(sub1.Corrupt - sub0.Corrupt), "count", 0},
		{"ros.sub.dispatch_p50_us", us(float64(sub1.Latency.P50)), "us", int64(sub1.Latency.Count)},
		{"wire.checksum_us", side.checksumUs, "us", iters(side.checksumUs)},
		{"wire.checksum_bytes_per_msg", perMsg(crc1 - crc0), "B", n},
		{"wire.loopback_floor_us", side.loopbackUs, "us", iters(side.loopbackUs)},
		{"shm.alloc_us", side.shmAllocUs, "us", iters(side.shmAllocUs)},
		{"shm.descriptor_sends_per_msg", perMsg(sh1.DescriptorSends - sh0.DescriptorSends), "count", n},
		{"shm.fallback_share", ratio(float64(sh1.Fallbacks-sh0.Fallbacks), float64(sh1.Fallbacks-sh0.Fallbacks+sh1.DescriptorSends-sh0.DescriptorSends)), "ratio", 0},
		{"shm.promotions_per_msg", perMsg(sh1.Promotions - sh0.Promotions), "count", n},
		{"shm.segments_mapped", float64(sh1.SegmentsMapped), "count", 0},
		{"shm.bytes_shared", float64(sh1.BytesShared), "B", 0},
		{"fieldwire.sparse_share", ratio(float64(fw1.SparseFrames-fw0.SparseFrames), masked), "ratio", int64(masked)},
		{"fieldwire.wire_bytes_per_msg", perMsg(maskedBytes), "B", int64(masked)},
		{"fieldwire.bytes_saved_per_msg", perMsg(fw1.BytesSaved - fw0.BytesSaved), "B", int64(masked)},
		{"fieldwire.decode_errors", float64(fw1.DecodeErrors - fw0.DecodeErrors), "count", 0},
		{"master.register_us", side.registerUs, "us", masterIters},
		{"master.watch_notify_us", side.notifyUs, "us", masterIters},
		{"tail.latency_p90_us", tail.p90, "us", tail.n},
		{"tail.latency_p99_us", tail.p99, "us", tail.n},
		{"tail.latency_p999_us", tail.p999, "us", tail.n},
		{"tail.latency_max_us", tail.max, "us", tail.n},
		{"tail.rep_spread_pct", tail.repSpreadPct, "%", int64(len(u.reps))},
		{"proc.peak_rss_mb", float64(readUsage().maxRSS) / 1024, "MB", 0},
		{"proc.ctxsw_per_msg", perMsg(uint64(t.sum(func(r repResult) int64 { return r.ctxsw }))), "count", n},
		{"proc.gc_cycles", float64(t.gcCycles), "count", 0},
		{"gen.window_stall_share", ratio(float64(t.sum(func(r repResult) int64 { return int64(r.stall) })),
			float64(t.sum(func(r repResult) int64 { return int64(r.elapsed) }))), "ratio", 0},
		{"trace.overhead_pct", ratio(tP50-uP50, uP50) * 100, "%", t.samples()},
		{"trace.self_sum_share", ts.selfSumShare, "ratio", spans},
		{"failed_share", ratio(float64(res.failed), float64(res.attempted)), "ratio", res.attempted},
	}
	return res, nil
}

// endToEnd reduces the untraced window to what a user of the middleware
// sees. Every value but setup_s is the best repetition's.
func endToEnd(u windowResult, setupS []float64) []metric {
	per := func(f func(r repResult) float64) float64 {
		return u.best(false, func(r repResult) float64 { return ratio(f(r), float64(r.delivered)) })
	}
	n := u.delivered()
	return []metric{
		{"setup_s", medianOf(setupS), "s", int64(len(setupS))},
		{"latency_p50_us", us(u.latencyP50()), "us", u.samples()},
		{"throughput_msgs_per_s", u.best(true, func(r repResult) float64 {
			return ratio(float64(r.delivered), r.elapsed.Seconds())
		}), "1/s", n},
		{"cpu_us_per_msg", per(func(r repResult) float64 { return us(float64(r.cpu)) }), "us", n},
		{"allocs_per_msg", per(func(r repResult) float64 { return float64(r.mallocs) }), "count", n},
		{"alloc_bytes_per_msg", per(func(r repResult) float64 { return float64(r.bytes) }), "B", n},
	}
}

// tailStats is the untraced window's latency tail, over every sample of
// every repetition. It is reported, not gated: on a shared two-core host
// it does not repeat within a tenth.
type tailStats struct {
	n                   int64
	p90, p99, p999, max float64 // µs
	repSpreadPct        float64 // IQR of the repetition medians / their median
}

func tailOf(u windowResult) tailStats {
	all := make([]int64, 0, u.samples())
	medians := make([]float64, 0, len(u.reps))
	for _, r := range u.reps {
		all = append(all, r.lat...)
		medians = append(medians, quantile(r.lat, 0.5))
	}
	slices.Sort(all)
	t := tailStats{n: int64(len(all)), p90: us(quantile(all, 0.9)), p99: us(quantile(all, 0.99)),
		max: us(quantile(all, 1)), repSpreadPct: iqrShare(medians) * 100}
	// A percentile is reported only with at least ten samples beyond it.
	if len(all) >= 10_000 {
		t.p999 = us(quantile(all, 0.999))
	}
	return t
}

// coreStats sums the life-cycle counters of the topology's two managers.
func coreStats(t *topology) core.Stats {
	p, s := t.pubMgr.Stats(), t.subMgr.Stats()
	p.Allocs += s.Allocs
	p.Grows += s.Grows
	p.MaxLive += s.MaxLive
	return p
}

// sides holds the side measurements of layers.go.
type sides struct {
	serUs, deserUs, serBytes float64
	checksumUs, loopbackUs   float64
	shmAllocUs               float64
	registerUs, notifyUs     float64
}

func sideMeasurements(t *topology, slab []byte) (s sides, err error) {
	if k, ok := t.kind.(*regularKind); ok {
		if s.serUs, s.deserUs, s.serBytes, err = measureSer(k); err != nil {
			return s, err
		}
	}
	s.checksumUs = measureChecksum(slab)
	if s.loopbackUs, err = measureLoopbackFloor(slab); err != nil {
		return s, err
	}
	if t.store != nil {
		if s.shmAllocUs, err = measureShmAlloc(t.pubMgr, len(slab)+arenaSlack); err != nil {
			return s, err
		}
	}
	s.registerUs, s.notifyUs, err = measureMaster()
	return s, err
}

// host is the machine a result was measured on.
type host struct {
	NProc        int    `json:"nproc"`
	GoMaxProcs   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Kernel       string `json:"kernel"`
	ShmFreeBytes uint64 `json:"dev_shm_free_bytes"`
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	var un syscall.Utsname
	if syscall.Uname(&un) == nil {
		b := make([]byte, 0, len(un.Release))
		for _, c := range un.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		h.Kernel = string(b)
	}
	var st syscall.Statfs_t
	if syscall.Statfs("/dev/shm", &st) == nil {
		h.ShmFreeBytes = st.Bavail * uint64(st.Bsize)
	}
	return h
}

// summary is benchmark/out/summary_<workload>.json: everything the run
// printed, for repeat.sh to compare. The benchmark defines a
// measurement and claims no gain, so Claim stays null, last.
type summary struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Host        host               `json:"host"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	FailedShare float64            `json:"failed_share"`
	EndToEnd    map[string]metric  `json:"end_to_end"`
	PerLayer    map[string]metric  `json:"per_layer"`
	SelfTimeUs  map[string]float64 `json:"self_time_us,omitempty"`
	Claim       *string            `json:"claim"`
}

// report prints every metric by name with its unit and sample count,
// writes the summary file, and ends standard output with the one-line
// JSON result.
func report(cfg config, hst host, res result) {
	sum := summary{Workload: cfg.wl.name, Seed: cfg.seed, Seconds: cfg.measure.Seconds(), Host: hst,
		Attempted: res.attempted, Failed: res.failed, FailedShare: ratio(float64(res.failed), float64(res.attempted)),
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}, SelfTimeUs: res.selfUs}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}

	for _, group := range []struct {
		metrics []metric
		into    map[string]metric
	}{{res.endToEnd, sum.EndToEnd}, {res.perLayer, sum.PerLayer}} {
		for _, m := range group.metrics {
			fmt.Printf("%-30s %16.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
			group.into[m.Name] = m
			line.Metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	for _, name := range spanNames {
		if v, ok := res.selfUs[name]; ok {
			fmt.Printf("self %-25s %16.4f us\n", name, v)
		}
	}
	fmt.Printf("failed %d of %d attempted\n", res.failed, res.attempted)

	if b, err := json.MarshalIndent(sum, "", "  "); err == nil {
		err = os.MkdirAll(cfg.outDir, 0o755)
		if err == nil {
			err = os.WriteFile(filepath.Join(cfg.outDir, "summary_"+cfg.wl.name+".json"), append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: summary not written: %v\n", err)
		}
	}
	b, _ := json.Marshal(line) // a struct of numbers, strings and one map: cannot fail
	fmt.Println(string(b))
}
