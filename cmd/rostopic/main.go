// Command rostopic is the graph introspection tool: it talks to a
// rosmaster and inspects live topics, like its ROS namesake.
//
// Usage:
//
//	rostopic -master 127.0.0.1:11311 [-master-timeout 5s] list
//	rostopic -master ... info  <topic>
//	rostopic -master ... hz    <topic> [-window 50]
//	rostopic -master ... bw    <topic> [-window 50] [-fields a,b]
//	rostopic -master ... stats <topic> [-duration 5s]
//	rostopic -master ... echo  <topic> [-count 5] [-idl msgs/idl] [-fields a,b]
//
// echo decodes both ROS1-format and SFM-format topics through the IDL
// registry (the SFM skeleton layout is recomputed from the IDL with the
// same rules the generator uses). Cross-endian SFM frames are shown as
// summaries only.
//
// -fields declares a field mask on the sampling subscription: the
// publisher transmits only the byte ranges backing the named dotted
// paths (e.g. header.stamp,header.frame_id) and the remaining fields
// read as typed zeros. Masks require an SFM-regime topic; publishers
// that cannot honor the mask fall back to full frames, so the flag is
// an upper bound on savings, never a correctness risk. With bw this
// measures the masked wire rate — compare against a run without the
// flag to see the reduction.
//
// hz, bw, and stats all read the observability registry (internal/obs)
// that the node's subscriber instruments write into — the same counters
// a long-running node exports over its /metrics endpoint — rather than
// ad-hoc callback counting. stats samples a topic for -duration and
// reports message rate, bandwidth, drops, and delivery-latency
// quantiles.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"

	"rossf/internal/msg"
	"rossf/internal/obs"
	"rossf/internal/ros"
	"rossf/internal/ser/rosser"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rostopic:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rostopic", flag.ContinueOnError)
	masterAddr := fs.String("master", ros.DefaultMasterAddr(),
		"rosmaster address; comma-separate failover candidates (default $ROS_MASTER_URI)")
	masterTimeout := fs.Duration("master-timeout", 5*time.Second,
		"retry the initial master dial with backoff for this long (0: single attempt)")
	window := fs.Int("window", 50, "hz/bw: number of messages to sample")
	count := fs.Int("count", 5, "echo: messages to print before exiting")
	idlDir := fs.String("idl", "msgs/idl", "echo: IDL directory for decoding")
	duration := fs.Duration("duration", 5*time.Second, "stats: sampling window")
	fieldsFlag := fs.String("fields", "",
		"echo/bw: comma-separated field paths to request (SFM topics; partial transmission)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var fields []string
	if *fieldsFlag != "" {
		for _, f := range strings.Split(*fieldsFlag, ",") {
			if f = strings.TrimSpace(f); f != "" {
				fields = append(fields, f)
			}
		}
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: rostopic [-master addr] <list|info|hz|bw|stats|echo> [topic]")
	}
	cmd := fs.Arg(0)

	// One registry shared between the master session and the sampling
	// subscriber, so `stats` can report graph-plane events (reconnects,
	// replays, degraded windows) that happen while it samples.
	reg := obs.NewRegistry()
	master, err := ros.DialMasterWithTimeout(*masterAddr, *masterTimeout,
		ros.WithMasterMetrics(reg))
	if err != nil {
		return err
	}
	defer master.Close()

	switch cmd {
	case "list":
		return list(master)
	case "info":
		return info(master, fs.Arg(1))
	case "hz":
		return rate(master, fs.Arg(1), *window, false, nil)
	case "bw":
		return rate(master, fs.Arg(1), *window, true, fields)
	case "stats":
		return stats(master, reg, fs.Arg(1), *duration)
	case "echo":
		return echo(master, fs.Arg(1), *count, *idlDir, fields)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func list(master *ros.RemoteMaster) error {
	infos, err := master.TopicsInfo()
	if err != nil {
		return err
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	for _, ti := range infos {
		fmt.Printf("%-40s %-30s %d publisher(s)\n", ti.Name, ti.TypeName, ti.NumPublishers)
	}
	return nil
}

func lookupTopic(master *ros.RemoteMaster, topic string) (ros.TopicInfo, error) {
	if topic == "" {
		return ros.TopicInfo{}, fmt.Errorf("topic argument required")
	}
	infos, err := master.TopicsInfo()
	if err != nil {
		return ros.TopicInfo{}, err
	}
	for _, ti := range infos {
		if ti.Name == topic {
			return ti, nil
		}
	}
	return ros.TopicInfo{}, fmt.Errorf("topic %q not known to the master", topic)
}

func info(master *ros.RemoteMaster, topic string) error {
	ti, err := lookupTopic(master, topic)
	if err != nil {
		return err
	}
	fmt.Printf("topic:      %s\ntype:       %s\nmd5sum:     %s\npublishers: %d\n",
		ti.Name, ti.TypeName, ti.MD5, ti.NumPublishers)
	return nil
}

// subscribeBoth attaches raw subscriptions in whichever regime the
// publisher speaks (tried SFM first, then ROS1; only the matching one
// connects). The node records into reg, so callers read traffic off the
// per-topic subscriber instruments instead of counting in callbacks.
// A non-empty field mask pins the subscription to the SFM regime
// (partial transmission has no meaning for serialized frames).
func subscribeBoth(master *ros.RemoteMaster, ti ros.TopicInfo, reg *obs.Registry,
	fields []string, cb func(ros.RawMessage)) (*ros.Node, error) {
	node, err := ros.NewNode("rostopic", ros.WithMaster(master), ros.WithoutListener(),
		ros.WithMetrics(reg))
	if err != nil {
		return nil, err
	}
	regimes := []bool{true, false}
	var opts []ros.SubOption
	if len(fields) > 0 {
		regimes = []bool{true}
		opts = append(opts, ros.WithFields(fields...))
	}
	for _, sfm := range regimes {
		if _, err := ros.SubscribeRaw(node, ti.Name, ti.TypeName, ti.MD5, sfm, cb, opts...); err != nil {
			node.Close()
			return nil, err
		}
	}
	return node, nil
}

// topicSample reads the live subscriber instruments for one topic.
func topicSample(reg *obs.Registry, topic string) obs.SubSnapshot {
	return reg.Snapshot().Subscribers[topic]
}

func rate(master *ros.RemoteMaster, topic string, window int, bandwidth bool, fields []string) error {
	ti, err := lookupTopic(master, topic)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	start := time.Now()
	node, err := subscribeBoth(master, ti, reg, fields, func(ros.RawMessage) {})
	if err != nil {
		return err
	}
	defer node.Close()

	for topicSample(reg, topic).Messages < uint64(window) {
		time.Sleep(10 * time.Millisecond)
		if time.Since(start) > 30*time.Second {
			break
		}
	}
	elapsed := time.Since(start).Seconds()
	s := topicSample(reg, topic)
	if s.Messages == 0 {
		return fmt.Errorf("no messages on %s within 30s", topic)
	}
	if bandwidth {
		masked := ""
		if len(fields) > 0 {
			masked = fmt.Sprintf("   (masked to %s)", strings.Join(fields, ","))
		}
		fmt.Printf("%s: %.2f MB/s over %d messages%s\n",
			topic, float64(s.Bytes)/elapsed/1e6, s.Messages, masked)
	} else {
		fmt.Printf("%s: %.2f Hz over %d messages\n", topic, float64(s.Messages)/elapsed, s.Messages)
	}
	return nil
}

// stats samples a topic for the given duration and prints the full
// instrument set: rate, bandwidth, drops, and latency quantiles.
func stats(master *ros.RemoteMaster, reg *obs.Registry, topic string, duration time.Duration) error {
	ti, err := lookupTopic(master, topic)
	if err != nil {
		return err
	}
	start := time.Now()
	node, err := subscribeBoth(master, ti, reg, nil, func(ros.RawMessage) {})
	if err != nil {
		return err
	}
	defer node.Close()

	time.Sleep(duration)
	elapsed := time.Since(start).Seconds()
	snap := reg.Snapshot()
	s := snap.Subscribers[topic]
	if s.Messages == 0 {
		return fmt.Errorf("no messages on %s within %s", topic, duration)
	}
	fmt.Printf("topic:     %s\n", topic)
	fmt.Printf("type:      %s\n", ti.TypeName)
	fmt.Printf("rate:      %.2f msg/s (%d messages in %.1fs)\n",
		float64(s.Messages)/elapsed, s.Messages, elapsed)
	fmt.Printf("bandwidth: %.2f MB/s (%d bytes)\n", float64(s.Bytes)/elapsed/1e6, s.Bytes)
	fmt.Printf("drops:     %d   reconnects: %d   corrupt frames: %d   stale shm descriptors: %d\n",
		s.Drops, s.Reconnects, s.Corrupt, s.Stale)
	fmt.Printf("latency:   p50 %v   p95 %v   p99 %v   (min %v, max %v)\n",
		s.Latency.P50, s.Latency.P95, s.Latency.P99, s.Latency.Min, s.Latency.Max)
	if p, ok := snap.Publishers[topic]; ok && p.Drops > 0 {
		fmt.Printf("publisher: %d drops   %d oversized (above a link's frame cap)\n", p.Drops, p.DropsOversized)
	}
	if sh := snap.Shm; sh.SegmentsMapped > 0 || sh.DescriptorSends > 0 || sh.Fallbacks > 0 {
		fmt.Printf("shm:       %d segments mapped (%d bytes)   %d descriptor transfers   %d promotions   %d tcp fallbacks   %d leases reaped\n",
			sh.SegmentsMapped, sh.BytesShared, sh.DescriptorSends, sh.Promotions, sh.Fallbacks, sh.LeasesReaped)
		if sh.Fallbacks > 0 {
			fr := sh.FallbackReasons
			fmt.Printf("           fallback reasons: oversized %d   heap_arena %d   peer_table_full %d   remote_peer %d   old_build %d   no_queue %d\n",
				fr.Oversized, fr.HeapArena, fr.PeerTableFull, fr.RemotePeer, fr.OldBuild, fr.NoQueue)
		}
	}
	if eg := snap.Egress; eg.Writes > 0 {
		fmt.Printf("egress:    %d vectored writes (%d frames, %d coalesced)   frames/write p50 %d p95 %d   bytes/write p50 %d p95 %d\n",
			eg.Writes, eg.Frames, eg.Coalesced,
			eg.FramesPerWrite.P50, eg.FramesPerWrite.P95,
			eg.BytesPerWrite.P50, eg.BytesPerWrite.P95)
	}
	if fw := snap.Fieldwire; fw.MaskedSubscriptions > 0 || fw.SparseFrames > 0 ||
		fw.MaskRejects > 0 || fw.DecodeErrors > 0 || fw.MaskFallbacks > 0 {
		fmt.Printf("fieldwire: %d masked subscriptions   %d sparse frames (%d bytes saved)   %d full frames   %d decode errors   %d fallbacks\n",
			fw.MaskedSubscriptions, fw.SparseFrames, fw.BytesSaved, fw.FullFrames,
			fw.DecodeErrors, fw.MaskFallbacks)
		if fw.MaskRejects > 0 {
			rr := fw.RejectReasons
			fmt.Printf("           mask rejects: %d   by reason: no_wire_map %d   unmappable_field %d   variable_tail %d\n",
				fw.MaskRejects, rr.NoMap, rr.Unmappable, rr.VarTail)
		}
	}
	if g := snap.Graph; g.MasterReconnects > 0 || g.Replays > 0 || g.GhostExpiries > 0 ||
		g.MalformedLines > 0 || g.Degraded != 0 {
		fmt.Printf("graph:     %d master reconnects   %d replays (resync p95 %v)   %d ghost expiries   %d malformed lines   degraded sessions: %d\n",
			g.MasterReconnects, g.Replays, g.Resync.P95, g.GhostExpiries, g.MalformedLines, g.Degraded)
	}
	if s.TransportUnavailable > 0 {
		fmt.Printf("warning:   publishers exist but were unreachable over this transport in %d reconcile passes\n",
			s.TransportUnavailable)
	}
	return nil
}

func echo(master *ros.RemoteMaster, topic string, count int, idlDir string, fields []string) error {
	ti, err := lookupTopic(master, topic)
	if err != nil {
		return err
	}
	reg := msg.NewRegistry()
	if err := reg.LoadFS(os.DirFS(filepath.Dir(idlDir)), filepath.Base(idlDir)); err != nil {
		return fmt.Errorf("load idl: %w", err)
	}
	codec := rosser.New(reg)

	done := make(chan struct{})
	var printed atomic.Int64
	node, err := subscribeBoth(master, ti, obs.NewRegistry(), fields, func(m ros.RawMessage) {
		if printed.Load() >= int64(count) {
			return
		}
		switch {
		case m.Format == "ros1":
			d, err := codec.Unmarshal(m.Frame, ti.TypeName)
			if err != nil {
				fmt.Printf("--- (%d bytes, undecodable: %v)\n", len(m.Frame), err)
			} else {
				fmt.Printf("---\n%s", formatDynamic(d, ""))
			}
		case m.LittleEndian == hostLittleEndian():
			d, err := reg.DecodeSFM(m.Frame, ti.TypeName)
			if err != nil {
				fmt.Printf("--- (sfm frame, %d bytes, undecodable: %v)\n", len(m.Frame), err)
			} else {
				fmt.Printf("--- [sfm]\n%s", formatDynamic(d, ""))
			}
		default:
			fmt.Printf("--- (sfm frame, %d bytes, foreign byte order)\n", len(m.Frame))
		}
		if printed.Add(1) == int64(count) {
			close(done)
		}
	})
	if err != nil {
		return err
	}
	defer node.Close()

	select {
	case <-done:
		return nil
	case <-time.After(30 * time.Second):
		return fmt.Errorf("timed out after %d message(s)", printed.Load())
	}
}

// hostLittleEndian reports this process's byte order.
func hostLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// formatDynamic renders a decoded message YAML-ish, eliding large
// arrays.
func formatDynamic(d *msg.Dynamic, indent string) string {
	var b strings.Builder
	for _, f := range d.Spec.Fields {
		v := d.Fields[f.Name]
		switch val := v.(type) {
		case *msg.Dynamic:
			fmt.Fprintf(&b, "%s%s:\n%s", indent, f.Name, formatDynamic(val, indent+"  "))
		case []uint8:
			fmt.Fprintf(&b, "%s%s: <%d bytes>\n", indent, f.Name, len(val))
		case []*msg.Dynamic:
			fmt.Fprintf(&b, "%s%s: <%d messages>\n", indent, f.Name, len(val))
		default:
			fmt.Fprintf(&b, "%s%s: %v\n", indent, f.Name, val)
		}
	}
	return b.String()
}
