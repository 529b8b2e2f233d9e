package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"rossf/internal/obs"
	"rossf/internal/ros"
)

// FailoverConfig parameterizes the warm-standby failover bench: a
// replicated master pair is loaded with a large registration graph
// through one journaling client, the primary is killed, and the run
// measures how fast the standby promotes and how fast the full graph is
// usable again on the new primary — with a completeness audit proving
// nothing was lost on the way (DESIGN §3.14).
type FailoverConfig struct {
	Entries int           // registrations to push through the pair (paper-scale run: 100000)
	Topics  int           // distinct topics the entries spread over
	Lease   time.Duration // primary lease; promotion should land within ~one lease of the kill

	// Registry receives the client's graph instruments (failovers,
	// epoch, replays). Defaults to a private registry.
	Registry *obs.Registry
}

func (c *FailoverConfig) fillDefaults() {
	if c.Entries == 0 {
		c.Entries = 100_000
	}
	if c.Topics == 0 {
		c.Topics = 1024
	}
	if c.Lease == 0 {
		c.Lease = 500 * time.Millisecond
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
}

// FailoverResult is the run report, serialized to BENCH_failover.json
// by the bench CLI.
type FailoverResult struct {
	Entries         int     `json:"entries"`
	Topics          int     `json:"topics"`
	LeaseMs         float64 `json:"lease_ms"`
	LoadSecs        float64 `json:"load_secs"`
	RegsPerSec      float64 `json:"registrations_per_sec"`
	SyncLagSecs     float64 `json:"standby_sync_lag_secs"` // load end -> replica complete
	PromotionMs     float64 `json:"promotion_ms"`          // kill -> standby serves writes
	RecoveryMs      float64 `json:"recovery_ms"`           // kill -> full graph readable on new primary
	CompletenessPct float64 `json:"completeness_pct"`      // entries present after failover
	Failovers       uint64  `json:"failovers"`
	Epoch           int64   `json:"epoch"`
}

// countPubs sums publisher registrations visible through m, or -1 while
// the graph plane is unavailable.
func countPubs(m *ros.RemoteMaster) int {
	infos, err := m.TopicsInfo()
	if err != nil {
		return -1
	}
	n := 0
	for _, ti := range infos {
		n += ti.NumPublishers
	}
	return n
}

// RunFailover executes the scenario: load, kill, promote, audit.
func RunFailover(cfg FailoverConfig) (*FailoverResult, error) {
	cfg.fillDefaults()
	primary, err := ros.NewMasterServer("127.0.0.1:0",
		ros.WithServerMetrics(obs.NewRegistry()),
		ros.WithPrimaryLease(cfg.Lease))
	if err != nil {
		return nil, fmt.Errorf("primary: %w", err)
	}
	defer primary.Close()
	standby, err := ros.NewMasterServer("127.0.0.1:0",
		ros.WithServerMetrics(obs.NewRegistry()),
		ros.WithStandby(primary.Addr()),
		ros.WithPrimaryLease(cfg.Lease))
	if err != nil {
		return nil, fmt.Errorf("standby: %w", err)
	}
	defer standby.Close()

	m, err := ros.DialMaster(primary.Addr()+","+standby.Addr(),
		ros.WithMasterMetrics(cfg.Registry),
		ros.WithMasterHeartbeat(cfg.Lease/4),
		ros.WithMasterRetry(ros.RetryPolicy{
			InitialBackoff: 5 * time.Millisecond,
			MaxBackoff:     cfg.Lease / 4,
			Multiplier:     2,
			Jitter:         0.5,
		}))
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	defer m.Close()

	// Load: one journaling client pushes the whole graph through the
	// primary while the standby replicates it live.
	loadStart := time.Now()
	for i := 0; i < cfg.Entries; i++ {
		_, err := m.RegisterPublisher(fmt.Sprintf("fo/bench/%04d", i%cfg.Topics),
			ros.PublisherInfo{
				NodeName: fmt.Sprintf("n%06d", i),
				Addr:     fmt.Sprintf("x:%d", i),
				TypeName: "bench/F", MD5: "f",
			})
		if err != nil {
			return nil, fmt.Errorf("register %d: %w", i, err)
		}
	}
	loadSecs := time.Since(loadStart).Seconds()

	// Wait until the replica holds the complete graph, so the promotion
	// below inherits everything (a mid-snapshot kill is the chaos
	// suite's job; the bench measures the steady-state path).
	syncStart := time.Now()
	reader, err := ros.DialMaster(standby.Addr(), ros.WithMasterMetrics(obs.NewRegistry()),
		ros.WithMasterHeartbeat(-1))
	if err != nil {
		return nil, fmt.Errorf("standby reader: %w", err)
	}
	for countPubs(reader) != cfg.Entries {
		if time.Since(syncStart) > 60*time.Second {
			reader.Close()
			return nil, fmt.Errorf("standby never caught up: %d/%d replicated", countPubs(reader), cfg.Entries)
		}
		time.Sleep(10 * time.Millisecond)
	}
	reader.Close()
	syncLag := time.Since(syncStart).Seconds()

	// Kill and measure. Promotion = standby open for writes; recovery =
	// the full graph readable again through the surviving client.
	killed := time.Now()
	primary.Close()
	for !standby.IsPrimary() {
		time.Sleep(time.Millisecond)
	}
	promotionMs := float64(time.Since(killed).Microseconds()) / 1e3

	var after int
	for {
		if after = countPubs(m); after == cfg.Entries {
			break
		}
		if time.Since(killed) > 120*time.Second {
			break // report the shortfall in CompletenessPct instead of erroring
		}
		time.Sleep(5 * time.Millisecond)
	}
	recoveryMs := float64(time.Since(killed).Microseconds()) / 1e3

	snap := cfg.Registry.Snapshot()
	return &FailoverResult{
		Entries:         cfg.Entries,
		Topics:          cfg.Topics,
		LeaseMs:         float64(cfg.Lease.Microseconds()) / 1e3,
		LoadSecs:        loadSecs,
		RegsPerSec:      float64(cfg.Entries) / loadSecs,
		SyncLagSecs:     syncLag,
		PromotionMs:     promotionMs,
		RecoveryMs:      recoveryMs,
		CompletenessPct: 100 * float64(after) / float64(cfg.Entries),
		Failovers:       snap.Graph.Failovers,
		Epoch:           snap.Graph.Epoch,
	}, nil
}

// Format renders the run for the terminal.
func (r *FailoverResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "failover: %d registrations over %d topics, lease %.0fms\n",
		r.Entries, r.Topics, r.LeaseMs)
	fmt.Fprintf(&b, "  load        %8.2fs   (%.0f regs/s)\n", r.LoadSecs, r.RegsPerSec)
	fmt.Fprintf(&b, "  sync lag    %8.2fs   (standby replica complete after load)\n", r.SyncLagSecs)
	fmt.Fprintf(&b, "  promotion   %8.1fms  (kill -> standby serves writes)\n", r.PromotionMs)
	fmt.Fprintf(&b, "  recovery    %8.1fms  (kill -> full graph on new primary)\n", r.RecoveryMs)
	fmt.Fprintf(&b, "  complete    %8.2f%%  epoch=%d failovers=%d\n",
		r.CompletenessPct, r.Epoch, r.Failovers)
	return b.String()
}

// JSON serializes the result for BENCH_failover.json.
func (r *FailoverResult) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
