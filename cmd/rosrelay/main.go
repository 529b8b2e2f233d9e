// Command rosrelay is a fan-out relay for one topic: it subscribes to
// the topic's origin publisher(s), re-publishes every frame through its
// own egress, and registers itself in the master's graph as a
// relay endpoint. Subscribers that see relay endpoints attach to
// exactly one relay instead of the origin, so running N rosrelay
// processes multiplies the topic's fan-out capacity N-fold — the origin
// serves the relays, each relay serves a slice of the subscriber
// population.
//
// Usage:
//
//	rosrelay -master 127.0.0.1:11311 -topic camera/image [-sfm]
//	         [-type sensor_msgs/Image -md5 ...]   (default: resolved from the master)
//	         [-queue 64] [-metrics 127.0.0.1:0]
//
// With -metrics, the node serves its observability snapshot — including
// the relay counters and the per-shard egress section — as JSON on
// /metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rossf/internal/obs"
	"rossf/internal/ros"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rosrelay:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rosrelay", flag.ContinueOnError)
	masterAddr := fs.String("master", ros.DefaultMasterAddr(),
		"rosmaster address; comma-separate failover candidates (default $ROS_MASTER_URI)")
	masterTimeout := fs.Duration("master-timeout", 5*time.Second,
		"retry the initial master dial with backoff for this long (0: single attempt)")
	topic := fs.String("topic", "", "topic to relay (required)")
	typeName := fs.String("type", "", "message type (default: resolved from the master)")
	md5 := fs.String("md5", "", "type checksum (default: resolved from the master)")
	sfm := fs.Bool("sfm", false, "relay the serialization-free wire regime")
	queue := fs.Int("queue", 64, "relay publisher queue depth")
	name := fs.String("name", "rosrelay", "node name registered with the master")
	metricsAddr := fs.String("metrics", "", "serve /metrics JSON on this address (empty = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *topic == "" {
		return fmt.Errorf("-topic is required")
	}

	master, err := ros.DialMasterWithTimeout(*masterAddr, *masterTimeout,
		ros.WithMasterMetrics(obs.Default()))
	if err != nil {
		return err
	}
	defer master.Close()

	// Resolve the topic binding from the graph when not pinned on the
	// command line, so `rosrelay -topic X` needs nothing else.
	if *typeName == "" || *md5 == "" {
		infos, err := master.TopicsInfo()
		if err != nil {
			return err
		}
		found := false
		for _, ti := range infos {
			if ti.Name == *topic {
				*typeName, *md5, found = ti.TypeName, ti.MD5, true
				break
			}
		}
		if !found {
			return fmt.Errorf("topic %q not registered with the master (advertise it first, or pass -type/-md5)", *topic)
		}
	}

	opts := []ros.Option{ros.WithMaster(master)}
	if *metricsAddr != "" {
		opts = append(opts, ros.WithMetricsAddr(*metricsAddr))
	}
	node, err := ros.NewNode(*name, opts...)
	if err != nil {
		return err
	}
	defer node.Close()
	if addr := node.MetricsAddr(); addr != "" {
		fmt.Printf("rosrelay: metrics on %s\n", addr)
	}

	relay, err := ros.NewRelay(node, *topic, *typeName, *md5, *sfm, ros.WithQueueSize(*queue))
	if err != nil {
		return err
	}
	defer relay.Close()
	fmt.Printf("rosrelay: relaying %q (%s, sfm=%v) via %s\n", *topic, *typeName, *sfm, node.Name())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("rosrelay: shutting down")
	return nil
}
