package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"rossf/internal/obs"
	"rossf/internal/ros"
)

// IngressConfig parameterizes the receive-side matrix: a high-rate
// single-subscriber drain (one publisher saturating one TCP reader)
// measured through the receive pump (the A/B against the deleted
// per-frame reader is on file in EXPERIMENTS.md).
type IngressConfig struct {
	Sizes   []int // drain payload sizes in bytes
	Frames  int   // measured frames at the smallest size (scaled down for larger payloads)
	Repeats int   // runs per cell; the best run is reported

	// Registry receives the drain runs' transport instruments. Defaults
	// to a private registry.
	Registry *obs.Registry
}

func (c *IngressConfig) fillDefaults() {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{4 << 10, 64 << 10}
	}
	if c.Frames == 0 {
		c.Frames = 30000
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
}

// framesFor scales the per-cell frame count so every cell moves a
// comparable byte volume, with a floor long enough to amortize TCP
// ramp-up.
func (c *IngressConfig) framesFor(size int) int {
	n := c.Frames
	if size > 16<<10 {
		n = c.Frames * (16 << 10) / size
	}
	if n < 512 {
		n = 512
	}
	return n
}

// IngressDrainRow is one single-subscriber drain cell.
type IngressDrainRow struct {
	SizeBytes    int     `json:"size_bytes"`
	Frames       int     `json:"frames"`
	NsPerMsg     float64 `json:"ns_per_msg"`
	FramesPerSec float64 `json:"frames_per_sec"`
	MBPerSec     float64 `json:"mb_per_sec"`
}

// IngressResult is the drain matrix, serialized to BENCH_ingress.json
// by the bench CLI.
type IngressResult struct {
	Drain []IngressDrainRow `json:"drain"`
}

// JSON renders the result for BENCH_ingress.json.
func (r *IngressResult) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Format renders the matrix as a table.
func (r *IngressResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ingress — batched frame drain\n")
	fmt.Fprintf(&b, "  %-10s %12s %14s %12s\n", "size", "frames", "ns/msg", "MB/s")
	for _, row := range r.Drain {
		fmt.Fprintf(&b, "  %-10s %12d %14.0f %12.1f\n",
			formatBytes(row.SizeBytes), row.Frames, row.NsPerMsg, row.MBPerSec)
	}
	return b.String()
}

// RunIngress measures the matrix.
func RunIngress(cfg IngressConfig) (*IngressResult, error) {
	cfg.fillDefaults()
	res := &IngressResult{}
	for _, size := range cfg.Sizes {
		row, err := runIngressDrainCell(size, cfg)
		if err != nil {
			return nil, fmt.Errorf("ingress drain %s: %w", formatBytes(size), err)
		}
		res.Drain = append(res.Drain, row)
	}
	return res, nil
}

const (
	ingressTopic = "bench/ingress"
	ingressType  = "bench_msgs/Blob"
	ingressMD5   = "benchingress000000000000000000f"

	// Credit window for the streaming drain: consulted every
	// ingressGateStride publishes, so worst-case backlog is
	// window+stride, under the queue depth — no drops shrink the run.
	ingressWindow     = 480
	ingressGateStride = 16
	ingressQueueSize  = 512
)

// runIngressDrainCell measures one payload size, keeping the best of
// the configured repeats.
func runIngressDrainCell(size int, cfg IngressConfig) (IngressDrainRow, error) {
	n := cfg.framesFor(size)
	row := IngressDrainRow{SizeBytes: size, Frames: n, NsPerMsg: math.Inf(1)}
	for rep := 0; rep < cfg.Repeats; rep++ {
		ns, err := runIngressDrainOnce(size, n, cfg)
		if err != nil {
			return row, err
		}
		row.NsPerMsg = math.Min(row.NsPerMsg, ns)
	}
	row.FramesPerSec = 1e9 / row.NsPerMsg
	row.MBPerSec = float64(size) / row.NsPerMsg * 1e9 / 1e6
	return row, nil
}

// runIngressDrainOnce stands up one publisher → one drain reader and
// measures a streaming run: publish n frames under a credit window,
// wait until the reader has verified all of them. Returns wall-clock
// nanoseconds per frame.
func runIngressDrainOnce(size, n int, cfg IngressConfig) (float64, error) {
	master := ros.NewLocalMaster()
	node, err := ros.NewNode("ingress_pub", ros.WithMaster(master), ros.WithMetrics(cfg.Registry))
	if err != nil {
		return 0, err
	}
	defer node.Close()
	pub, err := ros.AdvertiseRaw(node, ingressTopic, ingressType, ingressMD5, false, true,
		ros.WithQueueSize(ingressQueueSize))
	if err != nil {
		return 0, err
	}
	defer pub.Close()

	conn, err := ros.DialDrain(node.Addr(), ingressTopic, ingressType, ingressMD5, "ingress_drain", false)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if err := waitSubscribers(pub.NumSubscribers, 1); err != nil {
		return 0, err
	}

	warmup := n / 10
	if warmup < 64 {
		warmup = 64
	}
	total := warmup + n

	var delivered atomic.Int64
	drainErr := make(chan error, 1)
	go func() {
		drainErr <- ros.DrainFrames(conn, total, func(d int) {
			delivered.Store(int64(d))
		})
	}()

	frame := make([]byte, size)
	for i := range frame {
		frame[i] = byte(i)
	}
	waitFor := func(want int64) error {
		deadline := time.Now().Add(2 * time.Minute)
		for delivered.Load() < want {
			select {
			case err := <-drainErr:
				if err != nil {
					return fmt.Errorf("drain reader: %w", err)
				}
				return nil
			default:
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("drain stalled at %d/%d frames", delivered.Load(), want)
			}
			time.Sleep(50 * time.Microsecond)
		}
		return nil
	}
	publish := func(seq int) error {
		if seq%ingressGateStride == 0 {
			for int64(seq)-delivered.Load() > ingressWindow {
				time.Sleep(20 * time.Microsecond)
			}
		}
		return pub.PublishFrame(frame)
	}

	for i := 0; i < warmup; i++ {
		if err := publish(i); err != nil {
			return 0, err
		}
	}
	if err := waitFor(int64(warmup)); err != nil {
		return 0, err
	}

	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := publish(warmup + i); err != nil {
			return 0, err
		}
	}
	if err := waitFor(int64(total)); err != nil {
		return 0, err
	}
	elapsed := time.Since(t0)
	if err := <-drainErr; err != nil {
		return 0, fmt.Errorf("drain reader: %w", err)
	}
	return float64(elapsed) / float64(n), nil
}
