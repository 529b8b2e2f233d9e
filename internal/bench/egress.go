package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"rossf/internal/core"
	"rossf/internal/obs"
	"rossf/internal/ros"
	"rossf/msgs/sensor_msgs"
)

// EgressConfig parameterizes the TCP fan-out throughput matrix: one
// publisher streaming to N loopback-TCP subscribers as fast as a credit
// window allows. Unlike the lockstep IPC benchmark, the publisher keeps
// a backlog in flight, so the write loop sees queued frames and the
// batched egress path actually engages. The A/B against the deleted
// per-frame path is on file in EXPERIMENTS.md, with a recipe to
// re-measure it from the last commit that carried both.
type EgressConfig struct {
	Sizes    []int // payload sizes in bytes
	Fanouts  []int // subscriber counts
	Messages int   // measured messages at the smallest size (scaled down for larger payloads)
	Repeats  int   // runs per cell; the best run is reported

	// Registry receives the run's transport instruments; each row
	// records the observed frames-per-write from it as proof the batch
	// path engaged. Defaults to a private registry.
	Registry *obs.Registry
}

func (c *EgressConfig) fillDefaults() {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{4 << 10, 64 << 10, 1 << 20}
	}
	if len(c.Fanouts) == 0 {
		c.Fanouts = []int{1, 4, 8}
	}
	if c.Messages == 0 {
		c.Messages = 3000
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
}

// messagesFor scales the per-cell message count so every cell moves a
// comparable byte volume: the configured count at <=16 KiB, scaled
// down for larger payloads. The floor keeps megabyte-payload runs
// long enough (~200 ms) that TCP window ramp-up and scheduler noise
// amortize — at 64 messages a 1 MiB cell is a ~45 ms run that swings
// ±15% run to run.
func (c *EgressConfig) messagesFor(size int) int {
	n := c.Messages
	if size > 16<<10 {
		n = c.Messages * (16 << 10) / size
	}
	if n < 256 {
		n = 256
	}
	return n
}

// EgressRow is one (size, fanout) cell.
type EgressRow struct {
	SizeBytes      int     `json:"size_bytes"`
	Subscribers    int     `json:"subscribers"`
	Messages       int     `json:"messages"`
	NsPerMsg       float64 `json:"ns_per_msg"`
	MsgsPerSec     float64 `json:"msgs_per_sec"`
	MBPerSec       float64 `json:"mb_per_sec"` // aggregate across subscribers
	FramesPerWrite float64 `json:"frames_per_write"`
}

// EgressResult is the full matrix, serialized to BENCH_egress.json by
// the bench CLI.
type EgressResult struct {
	Rows []EgressRow `json:"rows"`
}

// JSON renders the result for BENCH_egress.json.
func (r *EgressResult) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Format renders the matrix as a table.
func (r *EgressResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Egress — streaming TCP fan-out\n")
	fmt.Fprintf(&b, "  %-10s %-6s %14s %12s %12s\n",
		"size", "subs", "ns/msg", "agg MB/s", "frames/wr")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %-6d %14.0f %12.1f %12.1f\n",
			formatBytes(row.SizeBytes), row.Subscribers, row.NsPerMsg,
			row.MBPerSec, row.FramesPerWrite)
	}
	return b.String()
}

// RunEgress measures the matrix.
func RunEgress(cfg EgressConfig) (*EgressResult, error) {
	cfg.fillDefaults()
	res := &EgressResult{}
	for _, size := range cfg.Sizes {
		for _, fanout := range cfg.Fanouts {
			row, err := runEgressCell(size, fanout, cfg)
			if err != nil {
				return nil, fmt.Errorf("egress %s/%d: %w", formatBytes(size), fanout, err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// runEgressCell measures one (size, fanout) cell, keeping the best of
// the configured repeats.
func runEgressCell(size, fanout int, cfg EgressConfig) (EgressRow, error) {
	n := cfg.messagesFor(size)
	row := EgressRow{SizeBytes: size, Subscribers: fanout, Messages: n, NsPerMsg: math.Inf(1)}
	before := cfg.Registry.Snapshot().Egress
	for rep := 0; rep < cfg.Repeats; rep++ {
		ns, err := runEgressOnce(size, fanout, n, cfg)
		if err != nil {
			return row, err
		}
		row.NsPerMsg = math.Min(row.NsPerMsg, ns)
	}
	after := cfg.Registry.Snapshot().Egress
	if writes := after.Writes - before.Writes; writes > 0 {
		row.FramesPerWrite = float64(after.Frames-before.Frames) / float64(writes)
	}
	row.MsgsPerSec = 1e9 / row.NsPerMsg
	row.MBPerSec = float64(size) * float64(fanout) / row.NsPerMsg * 1e9 / 1e6
	return row, nil
}

// Streaming flow control: the publisher keeps up to egressWindow
// messages in flight past the slowest subscriber. The window is large
// enough that the write loop always finds a backlog (batches form) and
// small enough that the publish queue never overflows (no drops skew
// the count).
const (
	egressWindow    = 128
	egressQueueSize = 2 * egressWindow
)

// runEgressOnce stands up a fresh topology and measures one streaming
// run: publish n messages under the credit window, then wait until
// every subscriber has received all of them. Returns wall-clock
// nanoseconds per published message.
func runEgressOnce(size, fanout, n int, cfg EgressConfig) (float64, error) {
	master := ros.NewLocalMaster()
	pubNode, err := ros.NewNode("egress_pub", ros.WithMaster(master), ros.WithMetrics(cfg.Registry))
	if err != nil {
		return 0, err
	}
	defer pubNode.Close()
	subNode, err := ros.NewNode("egress_sub", ros.WithMaster(master), ros.WithMetrics(cfg.Registry))
	if err != nil {
		return 0, err
	}
	defer subNode.Close()

	received := make([]atomic.Int64, fanout)
	for i := 0; i < fanout; i++ {
		counter := &received[i]
		sub, err := ros.Subscribe(subNode, "bench/egress", func(m *sensor_msgs.ImageSF) {
			counter.Add(1)
		}, ros.WithTransport(ros.TransportTCP))
		if err != nil {
			return 0, err
		}
		defer sub.Close()
	}
	pub, err := ros.Advertise[sensor_msgs.ImageSF](pubNode, "bench/egress",
		ros.WithQueueSize(egressQueueSize))
	if err != nil {
		return 0, err
	}
	defer pub.Close()
	if err := waitSubscribers(pub.NumSubscribers, fanout); err != nil {
		return 0, err
	}

	slowest := func() int64 {
		min := received[0].Load()
		for i := 1; i < fanout; i++ {
			if v := received[i].Load(); v < min {
				min = v
			}
		}
		return min
	}
	capacity := size + 8192
	publish := func(seq int) error {
		for int64(seq)-slowest() > egressWindow {
			time.Sleep(20 * time.Microsecond)
		}
		img, err := core.NewWithCapacity[sensor_msgs.ImageSF](capacity)
		if err != nil {
			return err
		}
		img.Header.Seq = uint32(seq)
		if err := img.Data.Resize(size); err != nil {
			return err
		}
		d := img.Data.Slice()
		d[0], d[size-1] = byte(seq), byte(seq)
		if err := pub.Publish(img); err != nil {
			return err
		}
		_, err = core.Release(img)
		return err
	}
	waitAll := func(want int64) error {
		deadline := time.Now().Add(2 * time.Minute)
		for slowest() < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("delivery stalled: slowest subscriber at %d/%d", slowest(), want)
			}
			time.Sleep(50 * time.Microsecond)
		}
		return nil
	}

	warmup := n / 10
	if warmup < 16 {
		warmup = 16
	}
	for i := 0; i < warmup; i++ {
		if err := publish(i); err != nil {
			return 0, err
		}
	}
	if err := waitAll(int64(warmup)); err != nil {
		return 0, err
	}

	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := publish(warmup + i); err != nil {
			return 0, err
		}
	}
	if err := waitAll(int64(warmup + n)); err != nil {
		return 0, err
	}
	return float64(time.Since(t0)) / float64(n), nil
}
