package bench

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"rossf/internal/core"
	"rossf/internal/msg"
	"rossf/internal/ser/flatser"
	"rossf/internal/wire"
	"rossf/msgs/sensor_msgs"
)

// Fig14Config parameterizes the middleware comparison. The paper uses
// the 6 MB image.
type Fig14Config struct {
	Size     ImageSize
	Messages int
	Warmup   int
}

func (c *Fig14Config) fillDefaults() {
	if c.Size.W == 0 {
		c.Size = PaperImageSizes[2]
	}
	if c.Messages == 0 {
		c.Messages = 100
	}
	if c.Warmup == 0 {
		c.Warmup = 5
	}
}

// Fig14Result reproduces Fig. 14: intra-machine latency per middleware.
type Fig14Result struct {
	Series []*LatencySeries
}

// Format renders the figure as a table with the serialization-free
// pairings the paper highlights.
func (r *Fig14Result) Format() string {
	out := FormatSeriesTable("Fig. 14 — intra-machine latency by middleware (6MB image, identical framed-TCP transport)", r.Series)
	get := func(name string) *LatencySeries {
		for _, s := range r.Series {
			if s.Label == name {
				return s
			}
		}
		return &LatencySeries{}
	}
	pairs := [][2]string{
		{"ProtoBuf", "FlatBuf"},
		{"RTI(XCDR2)", "RTI-FlatData"},
		{"ROS", "ROS-SF"},
	}
	for _, p := range pairs {
		base, sf := get(p[0]), get(p[1])
		if len(base.Samples) > 0 && len(sf.Samples) > 0 {
			out += fmt.Sprintf("%-12s -> %-14s serialization elimination saves %.1f%%\n",
				p[0], p[1], Reduction(base, sf))
		}
	}
	out += "paper: each serialization-free variant clusters below its serializing pair;\n" +
		"paper: the ProtoBuf<->FlatBuf gap is the smallest of the three pairs;\n" +
		"note: vendor transport tuning (RTI's fastest-transport result) is not modeled —\n" +
		"      all rows here share one framed-TCP channel, isolating serialization cost.\n"
	return out
}

// pipeline is one middleware's send and receive behavior over a shared
// framed byte channel. The returned stamp lets the harness compute
// end-to-end latency; the checksum forces the receiver to actually
// access the payload.
type pipeline struct {
	name string
	send func(conn net.Conn, src *rawImage) error
	recv func(conn net.Conn) (msg.Time, uint64, error)
}

// RunFig14 runs every middleware pipeline over its own loopback TCP
// connection, lockstep, and collects creation-to-access latencies. The
// figure's claim is an order within each pair (a serializing pipeline
// and its serialization-free variant), so a pair runs together, taking
// turns message by message: drift in the host (frequency, a
// neighbour's load) lands on both sides alike, and the collector work
// the pair sees is its own, not that of the other pairs' allocating
// pipelines.
func RunFig14(cfg Fig14Config) (*Fig14Result, error) {
	cfg.fillDefaults()
	ps := buildPipelines()
	res := &Fig14Result{}
	for i := 0; i < len(ps); i += 2 {
		pair, err := runPipelines(ps[i:i+2], cfg)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, pair.Series...)
	}
	return res, nil
}

// pipelineLink is one pipeline's connection and receiver.
type pipelineLink struct {
	p              pipeline
	client, server net.Conn
	results        chan recvResult
	series         *LatencySeries
}

type recvResult struct {
	stamp msg.Time
	err   error
}

func runPipelines(ps []pipeline, cfg Fig14Config) (*Fig14Result, error) {
	links := make([]*pipelineLink, 0, len(ps))
	defer func() {
		for _, l := range links {
			l.client.Close()
			l.server.Close()
		}
	}()
	rounds := cfg.Warmup + cfg.Messages
	for _, p := range ps {
		client, server, err := tcpPair()
		if err != nil {
			return nil, fmt.Errorf("fig14 %s: %w", p.name, err)
		}
		l := &pipelineLink{p: p, client: client, server: server,
			results: make(chan recvResult, 1), series: &LatencySeries{Label: p.name}}
		links = append(links, l)
		go func() {
			for i := 0; i < rounds; i++ {
				stamp, _, err := l.p.recv(l.server)
				l.results <- recvResult{stamp: stamp, err: err}
				if err != nil {
					return
				}
			}
		}()
	}

	slab := pixelSlab(cfg.Size.Bytes())
	for i := 0; i < rounds; i++ {
		for _, l := range links {
			t0 := time.Now()
			src := &rawImage{
				Seq:      uint32(i),
				Stamp:    msg.NewTime(t0),
				FrameID:  "camera",
				Height:   uint32(cfg.Size.H),
				Width:    uint32(cfg.Size.W),
				Step:     uint32(cfg.Size.W * 3),
				Encoding: "rgb8",
				Data:     slab,
			}
			if err := l.p.send(l.client, src); err != nil {
				return nil, fmt.Errorf("fig14 %s: %w", l.p.name, err)
			}
			r := <-l.results
			if r.err != nil {
				return nil, fmt.Errorf("fig14 %s: %w", l.p.name, r.err)
			}
			if i >= cfg.Warmup {
				l.series.Add(time.Since(r.stamp.ToTime()))
			}
		}
	}
	res := &Fig14Result{}
	for _, l := range links {
		res.Series = append(res.Series, l.series)
	}
	return res, nil
}

// MiddlewareNames lists the Fig. 14 configurations in display order.
func MiddlewareNames() []string {
	ps := buildPipelines()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.name
	}
	return names
}

// RunFig14One runs a single middleware pipeline (for testing.B benches
// that want one sub-benchmark per middleware).
func RunFig14One(name string, cfg Fig14Config) (*LatencySeries, error) {
	cfg.fillDefaults()
	for _, p := range buildPipelines() {
		if p.name == name {
			res, err := runPipelines([]pipeline{p}, cfg)
			if err != nil {
				return nil, err
			}
			return res.Series[0], nil
		}
	}
	return nil, fmt.Errorf("fig14: unknown middleware %q", name)
}

// buildPipelines assembles the six Fig. 14 configurations, each
// serializing pipeline followed by its serialization-free pair.
func buildPipelines() []pipeline {
	return []pipeline{
		rosPipeline(),
		rossfPipeline(),
		protoPipeline(),
		flatbufPipeline(),
		cdrPipeline(),
		flatdataPipeline(),
	}
}

// rosPipeline: construct regular struct -> ROS1 serialize -> frame ->
// de-serialize -> access.
func rosPipeline() pipeline {
	w := wire.NewWriter(1 << 20)
	return pipeline{
		name: "ROS",
		send: func(conn net.Conn, src *rawImage) error {
			m := &sensor_msgs.Image{
				Height: src.Height, Width: src.Width, Step: src.Step,
				Encoding: src.Encoding, Data: make([]uint8, len(src.Data)),
			}
			m.Header.Seq = src.Seq
			m.Header.Stamp = src.Stamp
			m.Header.FrameID = src.FrameID
			copy(m.Data, src.Data)
			w.Reset()
			if err := m.SerializeROS(w); err != nil {
				return err
			}
			return sendFrame(conn, w.Bytes())
		},
		recv: func(conn net.Conn) (msg.Time, uint64, error) {
			buf, err := recvFrame(conn, nil)
			if err != nil {
				return msg.Time{}, 0, err
			}
			var m sensor_msgs.Image
			if err := m.DeserializeROS(wire.NewReader(buf)); err != nil {
				return msg.Time{}, 0, err
			}
			return m.Header.Stamp, uint64(m.Height) + uint64(m.Width) + touch(m.Data), nil
		},
	}
}

// rossfPipeline: construct in the arena -> frame is the arena -> adopt
// -> access.
func rossfPipeline() pipeline {
	return pipeline{
		name: "ROS-SF",
		send: func(conn net.Conn, src *rawImage) error {
			m, err := sensor_msgs.NewImageSF()
			if err != nil {
				return err
			}
			m.Height, m.Width, m.Step = src.Height, src.Width, src.Step
			m.Header.Seq = src.Seq
			m.Header.Stamp = src.Stamp
			if err := m.Header.FrameID.Set(src.FrameID); err != nil {
				return err
			}
			if err := m.Encoding.Set(src.Encoding); err != nil {
				return err
			}
			if err := m.Data.Resize(len(src.Data)); err != nil {
				return err
			}
			copy(m.Data.Slice(), src.Data)
			frame, err := core.Bytes(m)
			if err != nil {
				return err
			}
			if err := sendFrame(conn, frame); err != nil {
				return err
			}
			_, err = core.Release(m)
			return err
		},
		recv: func(conn net.Conn) (msg.Time, uint64, error) {
			n, err := recvFrameLen(conn)
			if err != nil {
				return msg.Time{}, 0, err
			}
			buf := core.Default().GetBuffer(n)
			if _, err := io.ReadFull(conn, buf.Bytes()[:n]); err != nil {
				buf.Discard()
				return msg.Time{}, 0, err
			}
			m, err := core.Adopt[sensor_msgs.ImageSF](buf, n)
			if err != nil {
				buf.Discard()
				return msg.Time{}, 0, err
			}
			stamp := m.Header.Stamp
			sum := uint64(m.Height) + uint64(m.Width) + touch(m.Data.Slice())
			core.Release(m)
			return stamp, sum, nil
		},
	}
}

// protoPipeline: prefix-encoded serialize/de-serialize.
func protoPipeline() pipeline {
	w := wire.NewWriter(1 << 20)
	return pipeline{
		name: "ProtoBuf",
		send: func(conn net.Conn, src *rawImage) error {
			protoEncodeImage(w, src)
			return sendFrame(conn, w.Bytes())
		},
		recv: func(conn net.Conn) (msg.Time, uint64, error) {
			buf, err := recvFrame(conn, nil)
			if err != nil {
				return msg.Time{}, 0, err
			}
			var m rawImage
			if err := protoDecodeImage(buf, &m); err != nil {
				return msg.Time{}, 0, err
			}
			return m.Stamp, uint64(m.Height) + uint64(m.Width) + touch(m.Data), nil
		},
	}
}

// flatbufPipeline: builder-constructed, accessor-read (serialization
// free, but through the Builder/accessor API of §3.3).
func flatbufPipeline() pipeline {
	b := flatser.NewBuilder(1 << 20)
	return pipeline{
		name: "FlatBuf",
		send: func(conn net.Conn, src *rawImage) error {
			return sendFrame(conn, flatBuildImage(b, src))
		},
		recv: func(conn net.Conn) (msg.Time, uint64, error) {
			buf, err := recvFrame(conn, nil)
			if err != nil {
				return msg.Time{}, 0, err
			}
			return flatAccessImage(buf)
		},
	}
}

// cdrPipeline: the regular RTI path — struct, XCDR2 encode, decode.
func cdrPipeline() pipeline {
	w := wire.NewWriter(1 << 20)
	return pipeline{
		name: "RTI(XCDR2)",
		send: func(conn net.Conn, src *rawImage) error {
			// The regular DDS path constructs a message object first.
			m := *src
			m.Data = make([]byte, len(src.Data))
			copy(m.Data, src.Data)
			cdrEncodeImage(w, &m)
			return sendFrame(conn, w.Bytes())
		},
		recv: func(conn net.Conn) (msg.Time, uint64, error) {
			buf, err := recvFrame(conn, nil)
			if err != nil {
				return msg.Time{}, 0, err
			}
			var m rawImage
			if err := cdrDecodeImage(buf, &m); err != nil {
				return msg.Time{}, 0, err
			}
			return m.Stamp, uint64(m.Height) + uint64(m.Width) + touch(m.Data), nil
		},
	}
}

// flatdataPipeline: the RTI FlatData path — construct the XCDR2 bytes
// in place, access by member scan.
func flatdataPipeline() pipeline {
	w := wire.NewWriter(1 << 20)
	return pipeline{
		name: "RTI-FlatData",
		send: func(conn net.Conn, src *rawImage) error {
			cdrEncodeImage(w, src)
			return sendFrame(conn, w.Bytes())
		},
		recv: func(conn net.Conn) (msg.Time, uint64, error) {
			buf, err := recvFrame(conn, nil)
			if err != nil {
				return msg.Time{}, 0, err
			}
			return cdrAccessImage(buf)
		},
	}
}

// --- shared framed-TCP plumbing --------------------------------------

// tcpPair returns a connected loopback TCP pair.
func tcpPair() (client, server net.Conn, err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer l.Close()
	type accepted struct {
		conn net.Conn
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		ch <- accepted{c, err}
	}()
	client, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	a := <-ch
	if a.err != nil {
		client.Close()
		return nil, nil, a.err
	}
	return client, a.conn, nil
}

func sendFrame(conn net.Conn, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := conn.Write(hdr[:]); err != nil {
		return err
	}
	_, err := conn.Write(payload)
	return err
}

func recvFrameLen(conn net.Conn) (int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint32(hdr[:])), nil
}

func recvFrame(conn net.Conn, scratch []byte) ([]byte, error) {
	n, err := recvFrameLen(conn)
	if err != nil {
		return nil, err
	}
	if cap(scratch) < n {
		scratch = make([]byte, n)
	}
	buf := scratch[:n]
	if _, err := io.ReadFull(conn, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
