package bench

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rossf/internal/obs"
	"rossf/internal/ros"
	"rossf/internal/wire"
)

// FanoutConfig parameterizes the fan-out matrix: one raw publisher
// streaming under a credit window to N drain readers — bare TCP
// connections (ros.DialDrain) whose frames are parsed in place and
// counted, nothing else, so at ten thousand subscribers the measurement
// stays on the egress, not on the harness. The publisher is configured
// like any application's: whether its shard pool comes up is its own
// call, from its connection count (DESIGN §3.10), so each cell measures
// what a publisher with that many subscribers gets.
type FanoutConfig struct {
	Sizes   []int // payload sizes in bytes
	Fanouts []int // subscriber counts

	// Messages caps the measured messages per run; the actual count is
	// scaled down so a run moves at most BytesBudget aggregate bytes.
	Messages int
	// BytesBudget bounds size*fanout*messages per run (default 4 GiB).
	BytesBudget int64
	// Repeats is runs per cell; the 10,000-subscriber cells run once
	// (long runs self-average).
	Repeats int

	// Registry receives the transport instruments; the rows record
	// frames-per-write from it as proof the batch path engaged.
	Registry *obs.Registry

	// DrainExec is the argv prefix of a drain-worker subprocess
	// (normally the running binary's own `fanout-drain` subcommand).
	// Both ends of every subscriber connection live in this process
	// otherwise, so a 10,000-subscriber cell needs ~20k file
	// descriptors — over the hard RLIMIT_NOFILE on locked-down
	// containers where even root cannot raise it. When a cell would
	// not fit, the non-canary drains are pushed out to worker
	// processes (each with its own descriptor table) that report
	// delivery progress over stdout; with no DrainExec such cells are
	// skipped and noted in the JSON.
	DrainExec []string
}

func (c *FanoutConfig) fillDefaults() {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{4 << 10, 64 << 10}
	}
	if len(c.Fanouts) == 0 {
		c.Fanouts = []int{1, 8, 100, 1000, 10000}
	}
	if c.Messages == 0 {
		c.Messages = 2000
	}
	if c.BytesBudget == 0 {
		c.BytesBudget = 4 << 30
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
}

// messagesForCell scales the per-run message count to the byte budget.
func (c *FanoutConfig) messagesForCell(size, fanout int) int {
	n := c.Messages
	if budget := c.BytesBudget / (int64(size) * int64(fanout)); budget < int64(n) {
		n = int(budget)
	}
	if n < 24 {
		n = 24
	}
	return n
}

// FanoutRow is one (size, fanout) cell of the matrix: the best of its
// repeats.
type FanoutRow struct {
	SizeBytes   int `json:"size_bytes"`
	Subscribers int `json:"subscribers"`
	Messages    int `json:"messages"`
	// ShardedConns is how many of the subscribers the publisher's shard
	// pool served; the rest had a write loop each.
	ShardedConns int64   `json:"sharded_conns"`
	NsPerMsg     float64 `json:"ns_per_msg"`
	MsgsPerSec   float64 `json:"msgs_per_sec"`
	MBPerSec     float64 `json:"mb_per_sec"` // aggregate across subscribers
	// PublishNs is the time spent inside the publish call itself
	// (fan-out to queues; excludes flow-control waits): the hot-path
	// latency the publisher pays on every message, while end-to-end
	// msgs/sec converges to the kernel's TCP byte ceiling once every
	// core is busy.
	PublishNs float64 `json:"publish_ns_per_msg"`
	// P99LatencyUs is publish-to-callback latency at the canary
	// readers, queueing included.
	P99LatencyUs   float64 `json:"p99_latency_us"`
	FramesPerWrite float64 `json:"frames_per_write"`
	Skipped        string  `json:"skipped,omitempty"` // non-empty: cell not run (reason)
}

// FanoutResult is the full matrix, serialized to BENCH_fanout.json.
type FanoutResult struct {
	Notes string      `json:"notes,omitempty"`
	Rows  []FanoutRow `json:"rows"`
}

// fanoutNotes tells a reader of BENCH_fanout.json how to read the
// columns, in particular on small hosts where the end-to-end number is
// a kernel measurement, not a middleware one.
const fanoutNotes = "msgs_per_sec is end-to-end wall throughput and converges to the kernel's " +
	"TCP byte ceiling once every core is saturated. publish_ns_per_msg isolates the middleware's " +
	"own per-publish cost (the fan-out loop: one queue push per write-loop subscriber, one " +
	"handoff per shard once the pool is up, see sharded_conns); p99_latency_us includes the " +
	"harness's full credit-window queueing, not just transport latency."

// JSON renders the result for BENCH_fanout.json.
func (r *FanoutResult) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Format renders the matrix as a table.
func (r *FanoutResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fanout — one publisher streaming to N TCP subscribers\n")
	fmt.Fprintf(&b, "  %-10s %-7s %8s %12s %12s %12s %12s %12s %10s\n",
		"size", "subs", "sharded", "ns/msg", "msgs/s", "agg MB/s", "p99 µs", "pub ns/msg", "frames/wr")
	for _, row := range r.Rows {
		if row.Skipped != "" {
			fmt.Fprintf(&b, "  %-10s %-7d skipped: %s\n",
				formatBytes(row.SizeBytes), row.Subscribers, row.Skipped)
			continue
		}
		fmt.Fprintf(&b, "  %-10s %-7d %8d %12.0f %12.0f %12.1f %12.0f %12.0f %10.1f\n",
			formatBytes(row.SizeBytes), row.Subscribers, row.ShardedConns, row.NsPerMsg,
			row.MsgsPerSec, row.MBPerSec, row.P99LatencyUs, row.PublishNs, row.FramesPerWrite)
	}
	return b.String()
}

// raiseFDLimit lifts RLIMIT_NOFILE toward fanoutFDTarget once;
// best-effort (needs privilege to raise the hard cap).
const fanoutFDTarget = 65536

var raiseFDOnce sync.Once

func raiseFDLimit() {
	raiseFDOnce.Do(func() {
		var lim syscall.Rlimit
		if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
			return
		}
		want := uint64(fanoutFDTarget)
		if lim.Cur >= want {
			return
		}
		if lim.Max < want {
			// Raising the hard cap needs privilege; try, fall back to it.
			raised := lim
			raised.Cur, raised.Max = want, want
			if syscall.Setrlimit(syscall.RLIMIT_NOFILE, &raised) == nil {
				return
			}
			want = lim.Max
		}
		lim.Cur = want
		syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim) //nolint:errcheck // best-effort
	})
}

func fdLimit() uint64 {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return 0
	}
	return lim.Cur
}

// RunFanout measures the matrix.
func RunFanout(cfg FanoutConfig) (*FanoutResult, error) {
	cfg.fillDefaults()
	raiseFDLimit()
	res := &FanoutResult{Notes: fanoutNotes}
	for _, size := range cfg.Sizes {
		for _, fanout := range cfg.Fanouts {
			row, err := runFanoutCell(size, fanout, cfg)
			if err != nil {
				return nil, fmt.Errorf("fanout %s/%d: %w", formatBytes(size), fanout, err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func runFanoutCell(size, fanout int, cfg FanoutConfig) (FanoutRow, error) {
	n := cfg.messagesForCell(size, fanout)
	row := FanoutRow{SizeBytes: size, Subscribers: fanout, Messages: n}

	// Both connection ends live in this process unless the drains are
	// pushed to worker processes: 2 FDs per subscriber plus
	// listener/master/std slack. The publisher's accepted connections
	// always stay here, so that side alone must fit.
	limit := fdLimit()
	inProcOK := uint64(2*fanout+64) <= limit
	splitOK := len(cfg.DrainExec) > 0 && uint64(fanout+fanoutCanaries+128) <= limit
	if !inProcOK && !splitOK {
		row.Skipped = fmt.Sprintf("needs ~%d file descriptors, limit is %d and no drain worker configured",
			2*fanout+64, limit)
		return row, nil
	}

	// Only the very largest cells are too slow to repeat; the
	// 1000-subscriber cells keep their repeats — single runs there
	// swing ±50% with kernel scheduling and the min is the signal.
	repeats := cfg.Repeats
	if fanout >= 10000 {
		repeats = 1
	}
	before := cfg.Registry.Snapshot().Egress
	row.NsPerMsg, row.PublishNs = math.Inf(1), math.Inf(1)
	for rep := 0; rep < repeats; rep++ {
		r, err := runFanoutOnce(size, fanout, n, !inProcOK, cfg)
		if err != nil {
			return row, err
		}
		row.PublishNs = math.Min(row.PublishNs, r.publishNs)
		row.ShardedConns = r.shardedConns
		if r.nsPerMsg < row.NsPerMsg {
			row.NsPerMsg = r.nsPerMsg
			row.P99LatencyUs = r.p99 / 1e3
		}
	}
	after := cfg.Registry.Snapshot().Egress
	if writes := after.Writes - before.Writes; writes > 0 {
		row.FramesPerWrite = float64(after.Frames-before.Frames) / float64(writes)
	}
	row.MsgsPerSec = 1e9 / row.NsPerMsg
	row.MBPerSec = float64(size) * float64(fanout) / row.NsPerMsg * 1e9 / 1e6
	return row, nil
}

// Credit window for the streaming runs: large enough that shard
// batches form, small enough that no queue (shard or per-connection,
// both at fanoutQueueSize) ever overflows — drops would silently
// shrink the measured work. The gate is only consulted every
// fanoutGateStride messages (scanning every reader counter per publish
// would cost fanout atomic loads per message), so the worst-case
// backlog is window + stride, which must stay under the queue depth.
const (
	fanoutWindow     = 480
	fanoutGateStride = 16
	fanoutQueueSize  = 512
	fanoutCanaries   = 4
	fanoutTopic      = "bench/fanout"
	fanoutType       = "bench_msgs/Blob"
	fanoutMD5        = "benchfan00000000000000000000000f"
)

// fanoutReader drains one connection. Canary readers additionally
// recover the publish timestamp from each payload and record the
// delivery latency of measured-phase frames.
type fanoutReader struct {
	count   atomic.Int64
	samples []float64 // canary only; indexed by measured frame
	err     atomic.Value
}

// run parses frames in place out of one large read buffer: with a
// thousand readers sharing one core, a bufio+copy-out loop would spend
// more cycles on its second memcpy of every payload than the transport
// spends on the first, and the measurement would be of the harness.
// Payload bytes are counted but never copied; only the canaries look
// inside a frame (the leading seq + timestamp words).
func (r *fanoutReader) run(conn net.Conn, size, warmup int, canary bool) {
	buf := make([]byte, 256<<10+size)
	fill := 0
	for {
		n, err := conn.Read(buf[fill:])
		if n > 0 {
			fill += n
			pos := 0
			for fill-pos >= wire.FrameHeaderSize {
				hdr := buf[pos : pos+wire.FrameHeaderSize]
				if binary.LittleEndian.Uint32(hdr[0:4]) != wire.FrameMagic {
					r.err.Store(fmt.Errorf("bad frame magic at offset %d", pos))
					return
				}
				plen := int(binary.LittleEndian.Uint32(hdr[4:8]))
				if fill-pos < wire.FrameHeaderSize+plen {
					break // frame straddles the next read
				}
				if canary && plen >= 16 {
					p := buf[pos+wire.FrameHeaderSize:]
					seq := binary.LittleEndian.Uint64(p[0:8])
					stamp := binary.LittleEndian.Uint64(p[8:16])
					if int(seq) >= warmup {
						r.samples = append(r.samples, float64(uint64(time.Now().UnixNano())-stamp))
					}
				}
				pos += wire.FrameHeaderSize + plen
				r.count.Add(1)
			}
			if pos > 0 {
				fill = copy(buf, buf[pos:fill])
			}
		}
		if err != nil {
			if err != io.EOF {
				r.err.Store(err)
			}
			return
		}
	}
}

// fanoutRun is one measured topology run.
type fanoutRun struct {
	nsPerMsg     float64 // wall-clock ns per published message
	p99          float64 // canary p99 delivery latency, ns
	publishNs    float64 // ns inside the publish call itself, per message
	shardedConns int64   // subscribers the shard pool served
}

// drainChild is a worker process draining a block of subscriber
// connections in its own descriptor table. It reports the minimum
// per-connection delivered count over stdout ("min N" lines).
type drainChild struct {
	cmd   *exec.Cmd
	min   atomic.Int64
	err   atomic.Value
	ready chan struct{}
}

func startDrainChild(argv []string, addr string, conns, size int) (*drainChild, error) {
	cmd := exec.Command(argv[0], append(argv[1:],
		"-addr", addr, "-conns", fmt.Sprint(conns), "-size", fmt.Sprint(size))...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &drainChild{cmd: cmd, ready: make(chan struct{})}
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "ready":
				close(c.ready)
			case strings.HasPrefix(line, "min "):
				if v, err := strconv.ParseInt(line[4:], 10, 64); err == nil {
					c.min.Store(v)
				}
			case strings.HasPrefix(line, "err "):
				c.err.Store(fmt.Errorf("drain worker: %s", line[4:]))
				return
			}
		}
	}()
	return c, nil
}

func (c *drainChild) stop() {
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

// RunFanoutDrain is the body of the drain-worker subcommand: dial conns
// subscriber connections to addr, drain and count frames on each, and
// report the minimum per-connection count on stdout every few
// milliseconds. Exits when the publisher closes the connections.
func RunFanoutDrain(addr string, conns, size int) error {
	readers := make([]*fanoutReader, conns)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 64)
	var dialErr atomic.Value
	var dialWG sync.WaitGroup
	for i := 0; i < conns; i++ {
		readers[i] = &fanoutReader{}
		dialWG.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; dialWG.Done() }()
			conn, err := ros.DialDrain(addr, fanoutTopic, fanoutType, fanoutMD5,
				fmt.Sprintf("drainw_%d", i), false)
			if err != nil {
				dialErr.Store(err)
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				readers[i].run(conn, size, 0, false)
			}()
		}(i)
	}
	dialWG.Wait()
	if err, _ := dialErr.Load().(error); err != nil {
		fmt.Printf("err %v\n", err)
		return err
	}
	fmt.Println("ready")
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	report := func() int64 {
		min := readers[0].count.Load()
		for _, r := range readers[1:] {
			if v := r.count.Load(); v < min {
				min = v
			}
		}
		return min
	}
	last := int64(-1)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			fmt.Printf("min %d\n", report())
			return nil
		case <-tick.C:
			if m := report(); m != last {
				fmt.Printf("min %d\n", m)
				last = m
			}
			for _, r := range readers {
				if err, _ := r.err.Load().(error); err != nil {
					fmt.Printf("err %v\n", err)
					return err
				}
			}
		}
	}
}

// runFanoutOnce stands up one topology and measures one streaming run.
// With split set, only the canary drains run in this process; the rest
// live in drain-worker subprocesses.
func runFanoutOnce(size, fanout, n int, split bool, cfg FanoutConfig) (fanoutRun, error) {
	var zero fanoutRun
	master := ros.NewLocalMaster()
	node, err := ros.NewNode("fanout_pub", ros.WithMaster(master), ros.WithMetrics(cfg.Registry))
	if err != nil {
		return zero, err
	}
	defer node.Close()
	pub, err := ros.AdvertiseRaw(node, fanoutTopic, fanoutType, fanoutMD5, false, true,
		ros.WithQueueSize(fanoutQueueSize))
	if err != nil {
		return zero, err
	}
	defer pub.Close()

	warmup := n / 10
	if warmup < 16 {
		warmup = 16
	}

	// Split cells keep only the canaries in-process; everything else
	// drains in worker processes with their own descriptor tables.
	inProc := fanout
	var children []*drainChild
	if split {
		inProc = fanoutCanaries
		if inProc > fanout {
			inProc = fanout
		}
		defer func() {
			for _, c := range children {
				c.stop()
			}
		}()
		remaining := fanout - inProc
		perChild := int(fdLimit()) - 128
		for remaining > 0 {
			k := remaining
			if k > perChild {
				k = perChild
			}
			c, err := startDrainChild(cfg.DrainExec, node.Addr(), k, size)
			if err != nil {
				return zero, err
			}
			children = append(children, c)
			remaining -= k
		}
	}

	// Stand the in-process readers up with bounded dial concurrency;
	// each is one goroutine over a bare negotiated connection.
	readers := make([]*fanoutReader, inProc)
	conns := make([]net.Conn, inProc)
	var wg sync.WaitGroup
	// Deferred LIFO: close the connections first so the reader
	// goroutines unblock, then wait them out.
	defer wg.Wait()
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	sem := make(chan struct{}, 64)
	var dialErr atomic.Value
	var dialWG sync.WaitGroup
	for i := 0; i < inProc; i++ {
		readers[i] = &fanoutReader{}
		if i < fanoutCanaries {
			readers[i].samples = make([]float64, 0, n+warmup)
		}
		dialWG.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; dialWG.Done() }()
			conn, err := ros.DialDrain(node.Addr(), fanoutTopic, fanoutType, fanoutMD5,
				fmt.Sprintf("drain_%d", i), false)
			if err != nil {
				dialErr.Store(err)
				return
			}
			conns[i] = conn
			wg.Add(1)
			go func() {
				defer wg.Done()
				readers[i].run(conn, size, warmup, i < fanoutCanaries)
			}()
		}(i)
	}
	dialWG.Wait()
	if err, _ := dialErr.Load().(error); err != nil {
		return zero, err
	}
	for _, c := range children {
		select {
		case <-c.ready:
		case <-time.After(2 * time.Minute):
			return zero, fmt.Errorf("drain worker never became ready")
		}
		if err, _ := c.err.Load().(error); err != nil {
			return zero, err
		}
	}
	if err := waitSubscribers(pub.NumSubscribers, fanout); err != nil {
		return zero, err
	}
	// The registry's gauge, read while this run's connections are all up
	// and no other publisher lives: how many of them the pool took.
	shardedConns := cfg.Registry.Snapshot().Egress.Fanout.ShardedConns

	// Frame ring: a frame handed to PublishFrame stays referenced until
	// the slowest queue drains it, so the ring must outsize every
	// retention window (credit window + queue depth + batch in flight).
	const ringSlack = 128
	ring := make([][]byte, 0, fanoutWindow+fanoutQueueSize+ringSlack)
	for i := 0; i < cap(ring); i++ {
		f := make([]byte, size)
		for j := 16; j < size; j++ {
			f[j] = byte(j)
		}
		ring = append(ring, f)
	}

	slowest := func() int64 {
		min := readers[0].count.Load()
		for _, r := range readers[1:] {
			if v := r.count.Load(); v < min {
				min = v
			}
		}
		for _, c := range children {
			if v := c.min.Load(); v < min {
				min = v
			}
		}
		return min
	}
	var publishTime time.Duration
	publish := func(seq int) error {
		if seq%fanoutGateStride == 0 {
			for int64(seq)-slowest() > fanoutWindow {
				time.Sleep(20 * time.Microsecond)
			}
		}
		f := ring[seq%len(ring)]
		binary.LittleEndian.PutUint64(f[0:8], uint64(seq))
		t := time.Now()
		binary.LittleEndian.PutUint64(f[8:16], uint64(t.UnixNano()))
		err := pub.PublishFrame(f)
		publishTime += time.Since(t)
		return err
	}
	waitAll := func(want int64) error {
		deadline := time.Now().Add(5 * time.Minute)
		for slowest() < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("delivery stalled: slowest reader at %d/%d", slowest(), want)
			}
			for _, r := range readers {
				if err, _ := r.err.Load().(error); err != nil {
					return fmt.Errorf("reader failed: %w", err)
				}
			}
			for _, c := range children {
				if err, _ := c.err.Load().(error); err != nil {
					return err
				}
			}
			time.Sleep(50 * time.Microsecond)
		}
		return nil
	}

	for i := 0; i < warmup; i++ {
		if err := publish(i); err != nil {
			return zero, err
		}
	}
	if err := waitAll(int64(warmup)); err != nil {
		return zero, err
	}
	t0 := time.Now()
	publishTime = 0
	for i := 0; i < n; i++ {
		if err := publish(warmup + i); err != nil {
			return zero, err
		}
	}
	if err := waitAll(int64(warmup + n)); err != nil {
		return zero, err
	}
	elapsed := time.Since(t0)

	var samples []float64
	for i := 0; i < fanoutCanaries && i < inProc; i++ {
		samples = append(samples, readers[i].samples...)
	}
	return fanoutRun{
		nsPerMsg:     float64(elapsed) / float64(n),
		p99:          percentile(samples, 0.99),
		publishNs:    float64(publishTime) / float64(n),
		shardedConns: shardedConns,
	}, nil
}

// percentile returns the q-quantile of samples (ns), 0 when empty.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	idx := int(math.Ceil(q*float64(len(samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	return samples[idx]
}
