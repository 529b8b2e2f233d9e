// Command rospub publishes synthetic sensor_msgs/Image traffic on a
// topic — a hand tool for exercising multi-process graphs together with
// cmd/rosmaster and cmd/rostopic.
//
// Usage:
//
//	rospub [-master 127.0.0.1:11311] [-master-timeout 5s] [-topic camera/image]
//	       [-rate 10] [-width 256] [-height 256] [-sfm] [-count 0]
//	       [-metrics 127.0.0.1:0]
//
// With -metrics, the node serves its observability snapshot (per-topic
// publisher instruments plus message life-cycle gauges) as JSON on
// /metrics, and the standard pprof handlers on /debug/pprof.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rossf/internal/core"
	"rossf/internal/msg"
	"rossf/internal/obs"
	"rossf/internal/ros"
	"rossf/msgs/sensor_msgs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rospub:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rospub", flag.ContinueOnError)
	masterAddr := fs.String("master", ros.DefaultMasterAddr(),
		"rosmaster address; comma-separate failover candidates (default $ROS_MASTER_URI)")
	masterTimeout := fs.Duration("master-timeout", 5*time.Second,
		"retry the initial master dial with backoff for this long (0: single attempt)")
	topic := fs.String("topic", "camera/image", "topic to publish")
	rate := fs.Int("rate", 10, "publish rate in Hz")
	width := fs.Int("width", 256, "image width")
	height := fs.Int("height", 256, "image height")
	sfm := fs.Bool("sfm", false, "publish serialization-free messages")
	count := fs.Int("count", 0, "messages to publish (0 = forever)")
	metricsAddr := fs.String("metrics", "", "serve /metrics JSON on this address (empty = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The node below defaults to obs.Default(); feeding the master
	// session the same registry makes graph-plane events (reconnects,
	// replays, degraded windows) visible on the /metrics endpoint.
	master, err := ros.DialMasterWithTimeout(*masterAddr, *masterTimeout,
		ros.WithMasterMetrics(obs.Default()))
	if err != nil {
		return err
	}
	defer master.Close()
	opts := []ros.Option{ros.WithMaster(master)}
	if *metricsAddr != "" {
		opts = append(opts, ros.WithMetricsAddr(*metricsAddr))
	}
	node, err := ros.NewNode("rospub", opts...)
	if err != nil {
		return err
	}
	defer node.Close()
	if addr := node.MetricsAddr(); addr != "" {
		fmt.Printf("rospub: metrics on %s\n", addr)
	}

	interval := time.Second / time.Duration(*rate)
	payload := *width * *height * 3
	fmt.Printf("rospub: %s on %q, %dx%d rgb8 (%d KiB) at %d Hz, sfm=%v\n",
		node.Name(), *topic, *width, *height, payload/1024, *rate, *sfm)

	if *sfm {
		return publishSFM(node, *topic, *width, *height, interval, *count)
	}
	return publishRegular(node, *topic, *width, *height, interval, *count)
}

func publishRegular(node *ros.Node, topic string, w, h int, interval time.Duration, count int) error {
	pub, err := ros.Advertise[sensor_msgs.Image](node, topic)
	if err != nil {
		return err
	}
	for i := 0; count == 0 || i < count; i++ {
		img := &sensor_msgs.Image{
			Height: uint32(h), Width: uint32(w), Step: uint32(w * 3),
			Encoding: "rgb8", Data: make([]uint8, w*h*3),
		}
		img.Header.Seq = uint32(i)
		img.Header.Stamp = msg.NewTime(time.Now())
		img.Header.FrameID = "camera"
		fill(img.Data, i)
		if err := pub.Publish(img); err != nil {
			return err
		}
		time.Sleep(interval)
	}
	return nil
}

func publishSFM(node *ros.Node, topic string, w, h int, interval time.Duration, count int) error {
	pub, err := ros.Advertise[sensor_msgs.ImageSF](node, topic)
	if err != nil {
		return err
	}
	for i := 0; count == 0 || i < count; i++ {
		img, err := sensor_msgs.NewImageSF()
		if err != nil {
			return err
		}
		img.Height, img.Width, img.Step = uint32(h), uint32(w), uint32(w*3)
		img.Header.Seq = uint32(i)
		img.Header.Stamp = msg.NewTime(time.Now())
		img.Header.FrameID.Set("camera")
		img.Encoding.Set("rgb8")
		if err := img.Data.Resize(w * h * 3); err != nil {
			return err
		}
		fill(img.Data.Slice(), i)
		if err := pub.Publish(img); err != nil {
			return err
		}
		core.Release(img)
		time.Sleep(interval)
	}
	return nil
}

func fill(data []byte, seed int) {
	for i := range data {
		data[i] = byte(i + seed)
	}
}
