package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"rossf/internal/core"
	"rossf/internal/msg"
	"rossf/internal/obs"
	"rossf/internal/ros"
	"rossf/internal/shm"
	"rossf/msgs/sensor_msgs"
)

// IPCConfig parameterizes the intra-machine transport comparison: the
// same lockstep pub/sub workload over the in-process, shared-memory,
// and TCP-loopback transports. Unlike the figure experiments, the
// payload is touched, not fully rendered, per message — the benchmark
// isolates transport cost, which is where the transports differ.
type IPCConfig struct {
	Sizes    []int  // payload sizes in bytes
	Messages int    // measured messages per configuration
	Warmup   int    // unmeasured leading messages
	Dir      string // shared-memory backing directory override (tests)

	// Registry receives the run's transport instruments; tests use it to
	// assert the shm rows really traveled as descriptors. Defaults to a
	// private registry.
	Registry *obs.Registry
}

func (c *IPCConfig) fillDefaults() {
	if len(c.Sizes) == 0 {
		// The two top cells are the production payloads the large-object
		// path exists for: 8 MiB ≈ an uncompressed 1080p-class image,
		// 128 MiB ≈ a dense point cloud — above the largest pooled slot
		// class, so it exercises the dedicated per-message segments.
		c.Sizes = []int{4 << 10, 64 << 10, 1 << 20, 8 << 20, 128 << 20}
	}
	if c.Messages == 0 {
		c.Messages = 200
	}
	if c.Warmup == 0 {
		c.Warmup = 20
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
}

// cellWarmup bounds the unmeasured leading messages of very large
// payloads: at 128 MiB even a lockstep ping moves gigabytes, and pools
// and mappings are warm after a handful. The measured count is never
// scaled: every cell takes cfg.Messages samples.
func cellWarmup(size, warmup int) int {
	if size >= 8<<20 && warmup > 5 {
		return 5
	}
	return warmup
}

// shmSkipReason reports why a shm cell cannot run, or "" to proceed: a
// large payload needs headroom in the segment directory (usually
// /dev/shm, a tmpfs whose size is often half of RAM), and running
// anyway would end in SIGBUS when the sparse segment fails to commit a
// page. A free-space probe of 0 means "unknown" and does not skip.
func shmSkipReason(size int, dir string) string {
	if size < 8<<20 {
		return ""
	}
	if dir == "" {
		dir = shm.Dir()
	}
	free := shm.DirBytesFree(dir)
	// Publisher slots plus growth slack; lockstep keeps at most a couple
	// of messages live at once.
	need := uint64(size) * 4
	if free != 0 && free < need {
		return fmt.Sprintf("segment dir %s has %d bytes free, need %d", dir, free, need)
	}
	return ""
}

// IPC transport labels, in display order.
const (
	IPCInproc = "inproc"
	IPCShm    = "shm"
	IPCTCP    = "tcp"
)

// IPCRow is one (size, transport) measurement. Skipped rows (e.g. a
// large shm cell without enough /dev/shm headroom) keep their place in
// the matrix with SkipReason set and the measurements zero.
type IPCRow struct {
	SizeBytes    int     `json:"size_bytes"`
	Transport    string  `json:"transport"`
	Messages     int     `json:"messages"`
	NsPerMsg     float64 `json:"ns_per_msg"`
	MsgsPerSec   float64 `json:"msgs_per_sec"`
	MBPerSec     float64 `json:"mb_per_sec"`
	SpeedupVsTCP float64 `json:"speedup_vs_tcp,omitempty"`
	Skipped      bool    `json:"skipped,omitempty"`
	SkipReason   string  `json:"skip_reason,omitempty"`
}

// IPCResult is the full matrix, serialized to BENCH_ipc.json by the
// bench CLI.
type IPCResult struct {
	ShmAvailable bool     `json:"shm_available"`
	Rows         []IPCRow `json:"rows"`
}

// JSON renders the result for BENCH_ipc.json.
func (r *IPCResult) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Format renders the matrix as a table.
func (r *IPCResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "IPC — intra-machine transport comparison (lockstep pub/sub)\n")
	if !r.ShmAvailable {
		fmt.Fprintf(&b, "  (shared-memory transport unavailable on this platform; shm rows skipped)\n")
	}
	fmt.Fprintf(&b, "  %-10s %-8s %14s %14s %12s %14s\n",
		"size", "trans", "ns/msg", "msgs/s", "MB/s", "speedup vs tcp")
	for _, row := range r.Rows {
		if row.Skipped {
			fmt.Fprintf(&b, "  %-10s %-8s skipped: %s\n",
				formatBytes(row.SizeBytes), row.Transport, row.SkipReason)
			continue
		}
		speedup := ""
		if row.SpeedupVsTCP > 0 {
			speedup = fmt.Sprintf("%.1fx", row.SpeedupVsTCP)
		}
		fmt.Fprintf(&b, "  %-10s %-8s %14.0f %14.0f %12.1f %14s\n",
			formatBytes(row.SizeBytes), row.Transport, row.NsPerMsg, row.MsgsPerSec, row.MBPerSec, speedup)
	}
	return b.String()
}

func formatBytes(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// RunIPC measures the matrix. Every transport runs the identical
// workload: a lockstep ping (publish, wait for the callback) of
// sensor_msgs/ImageSF messages whose Data vector holds the payload.
func RunIPC(cfg IPCConfig) (*IPCResult, error) {
	cfg.fillDefaults()
	res := &IPCResult{ShmAvailable: shm.Available()}
	for _, size := range cfg.Sizes {
		var tcpNs float64
		transports := []string{IPCInproc, IPCShm, IPCTCP}
		rows := make(map[string]IPCRow, len(transports))
		for _, tr := range transports {
			if tr == IPCShm && !res.ShmAvailable {
				continue
			}
			reason := ""
			switch {
			case tr == IPCShm:
				reason = shmSkipReason(size, cfg.Dir)
			case tr == IPCTCP && size >= ros.MaxTCPFrameBytes:
				// Not a slow cell but an undeliverable one: the subscriber's
				// pump treats a longer frame as stream damage and skips it.
				reason = fmt.Sprintf("plain TCP links carry frames up to %s; larger messages need the shm transport", formatBytes(ros.MaxTCPFrameBytes))
			}
			if reason != "" {
				rows[tr] = IPCRow{SizeBytes: size, Transport: tr, Skipped: true, SkipReason: reason}
				continue
			}
			series, err := runIPCOnce(tr, size, cfg)
			if err != nil {
				return nil, fmt.Errorf("ipc %s/%s: %w", formatBytes(size), tr, err)
			}
			ns := float64(series.Mean())
			if ns <= 0 {
				ns = 1
			}
			rows[tr] = IPCRow{
				SizeBytes:  size,
				Transport:  tr,
				Messages:   len(series.Samples),
				NsPerMsg:   ns,
				MsgsPerSec: 1e9 / ns,
				MBPerSec:   float64(size) / ns * 1e9 / 1e6,
			}
			if tr == IPCTCP {
				tcpNs = ns
			}
		}
		for _, tr := range transports {
			row, ok := rows[tr]
			if !ok {
				continue
			}
			if tr != IPCTCP && tcpNs > 0 && row.NsPerMsg > 0 {
				row.SpeedupVsTCP = tcpNs / row.NsPerMsg
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// ipcRun is one live (transport, size) topology, reusable across
// iterations: Ping publishes one message and blocks until the
// subscriber callback has seen it.
type ipcRun struct {
	pub      *ros.Publisher[sensor_msgs.ImageSF]
	alloc    func() (*sensor_msgs.ImageSF, error)
	got      chan time.Duration
	size     int
	teardown []func()
}

// Close tears the topology down in reverse construction order.
func (r *ipcRun) Close() {
	for i := len(r.teardown) - 1; i >= 0; i-- {
		r.teardown[i]()
	}
}

// Ping publishes one payload and waits for its delivery, returning the
// creation-to-callback latency.
func (r *ipcRun) Ping(seq int) (time.Duration, error) {
	t0 := time.Now()
	img, err := r.alloc()
	if err != nil {
		return 0, err
	}
	img.Header.Seq = uint32(seq)
	img.Header.Stamp = msg.NewTime(t0)
	if err := img.Data.Resize(r.size); err != nil {
		return 0, err
	}
	d := img.Data.Slice()
	d[0], d[r.size-1] = byte(seq), byte(seq)
	if err := r.pub.Publish(img); err != nil {
		return 0, err
	}
	if _, err := core.Release(img); err != nil {
		return 0, err
	}
	return awaitSample(r.got)
}

// startIPC wires one topology: inproc attaches pub and sub inside one
// node; shm and tcp run two nodes over loopback, differing only in the
// negotiated transport.
func startIPC(transport string, size int, cfg IPCConfig) (*ipcRun, error) {
	run := &ipcRun{got: make(chan time.Duration, 1), size: size}
	ok := false
	defer func() {
		if !ok {
			run.Close()
		}
	}()

	capacity := size + 8192
	run.alloc = func() (*sensor_msgs.ImageSF, error) {
		return core.NewWithCapacity[sensor_msgs.ImageSF](capacity)
	}
	master := ros.NewLocalMaster()
	pubOpts := []ros.Option{ros.WithMaster(master), ros.WithMetrics(cfg.Registry)}
	subMode := ros.TransportTCP

	var store *shm.Store
	if transport == IPCShm {
		var err error
		store, err = shm.NewStore(shm.Options{Dir: cfg.Dir, Stats: cfg.Registry.Shm()})
		if err != nil {
			return nil, err
		}
		run.teardown = append(run.teardown, func() {
			deadline := time.Now().Add(5 * time.Second)
			for !store.Idle() && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			store.Close()
		})
		mgr := core.NewManager()
		mgr.SetBackingStore(store)
		run.alloc = func() (*sensor_msgs.ImageSF, error) {
			return core.NewIn[sensor_msgs.ImageSF](mgr, capacity)
		}
		pubOpts = append(pubOpts, ros.WithShmStore(store))
		subMode = ros.TransportShm
	}

	pubNode, err := ros.NewNode("ipc_pub", pubOpts...)
	if err != nil {
		return nil, err
	}
	run.teardown = append(run.teardown, func() { pubNode.Close() })

	subNode := pubNode
	if transport == IPCInproc {
		subMode = ros.TransportInproc
	} else {
		subNode, err = ros.NewNode("ipc_sub", ros.WithMaster(master), ros.WithMetrics(cfg.Registry))
		if err != nil {
			return nil, err
		}
		run.teardown = append(run.teardown, func() { subNode.Close() })
	}

	if _, err := ros.Subscribe(subNode, "bench/ipc", func(m *sensor_msgs.ImageSF) {
		run.got <- time.Since(m.Header.Stamp.ToTime())
	}, ros.WithTransport(subMode)); err != nil {
		return nil, err
	}
	run.pub, err = ros.Advertise[sensor_msgs.ImageSF](pubNode, "bench/ipc")
	if err != nil {
		return nil, err
	}
	if err := waitSubscribers(run.pub.NumSubscribers, 1); err != nil {
		return nil, err
	}
	ok = true
	return run, nil
}

// runIPCOnce measures one (transport, size) cell.
func runIPCOnce(transport string, size int, cfg IPCConfig) (*LatencySeries, error) {
	run, err := startIPC(transport, size, cfg)
	if err != nil {
		return nil, err
	}
	defer run.Close()

	series := &LatencySeries{Label: fmt.Sprintf("%s %s", transport, formatBytes(size))}
	warmup := cellWarmup(size, cfg.Warmup)
	for i := 0; i < warmup+cfg.Messages; i++ {
		d, err := run.Ping(i)
		if err != nil {
			return nil, err
		}
		if i >= warmup {
			series.Add(d)
		}
	}
	return series, nil
}
