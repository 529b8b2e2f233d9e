package ros_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"rossf/internal/msgtest"
	"rossf/internal/obs"
	"rossf/internal/ros"
	"rossf/internal/shm"
	"rossf/internal/wire"
	"rossf/msgs/sensor_msgs"
)

// Handshake headers exactly as they left a subscriber and a publisher
// built from commit feb4aa9 (the last one before the capability module),
// captured off a loopback socket. Four values are specific to the
// capturing host and process — bootid, pid, shmprefix, shmqueue — and
// are replaced by this process's before comparing; every other byte,
// including key order and length prefixes, must match.
//
// The two links that offer shm differ from that capture by design: the
// frame queue took the descriptor off the connection (DESIGN §3.7), so
// their offer says transports=shmq,tcp and names the queue (shmqueue=),
// and a grant answers transport=shmq. A link that offers no shm — the
// other three — is byte-identical to feb4aa9.
var goldenHandshakes = []struct {
	name          string
	offer, answer string
	shmStore      bool
	sub           []ros.SubOption
}{
	{
		name:   "plain",
		offer:  "\x91\x00\x00\x00\x13\x00\x00\x00callerid=golden_sub\r\x00\x00\x00endian=little\n\x00\x00\x00format=sfm'\x00\x00\x00md5sum=060021388200f6f0f447d0fcd9c64743\x12\x00\x00\x00topic=golden/image\x16\x00\x00\x00type=sensor_msgs/Image",
		answer: "\x8c\x00\x00\x00\x13\x00\x00\x00callerid=golden_pub\r\x00\x00\x00endian=little\n\x00\x00\x00format=sfm'\x00\x00\x00md5sum=060021388200f6f0f447d0fcd9c64743\r\x00\x00\x00transport=tcp\x16\x00\x00\x00type=sensor_msgs/Image",
		sub:    []ros.SubOption{ros.WithTransport(ros.TransportTCP)},
	},
	{
		name:     "shm",
		offer:    "\b\x01\x00\x00+\x00\x00\x00bootid=238a5550-80bd-4a62-a8dd-9276481c37ab\x13\x00\x00\x00callerid=golden_sub\r\x00\x00\x00endian=little\n\x00\x00\x00format=sfm'\x00\x00\x00md5sum=060021388200f6f0f447d0fcd9c64743\t\x00\x00\x00pid=32429 \x00\x00\x00shmqueue=/dev/shm/rossf-32429-q1\x12\x00\x00\x00topic=golden/image\x13\x00\x00\x00transports=shmq,tcp\x16\x00\x00\x00type=sensor_msgs/Image",
		answer:   "\xf7\x00\x00\x00\x13\x00\x00\x00callerid=golden_pub\r\x00\x00\x00endian=little\n\x00\x00\x00format=sfm'\x00\x00\x00md5sum=060021388200f6f0f447d0fcd9c64743\b\x00\x00\x00shmgen=1\r\x00\x00\x00shmlease=2000\t\x00\x00\x00shmpeer=0<\x00\x00\x00shmprefix=/tmp/TestCaptureGolden1495216840/001/rossf-32429-0\x0e\x00\x00\x00transport=shmq\x16\x00\x00\x00type=sensor_msgs/Image",
		shmStore: true,
		sub:      []ros.SubOption{ros.WithTransport(ros.TransportShm)},
	},
	{
		name:   "masked",
		offer:  "\xaf\x00\x00\x00\x13\x00\x00\x00callerid=golden_sub\r\x00\x00\x00endian=little\x1a\x00\x00\x00fields=header.stamp,height\n\x00\x00\x00format=sfm'\x00\x00\x00md5sum=060021388200f6f0f447d0fcd9c64743\x12\x00\x00\x00topic=golden/image\x16\x00\x00\x00type=sensor_msgs/Image",
		answer: "\x9c\x00\x00\x00\x13\x00\x00\x00callerid=golden_pub\r\x00\x00\x00endian=little\f\x00\x00\x00fieldwire=v1\n\x00\x00\x00format=sfm'\x00\x00\x00md5sum=060021388200f6f0f447d0fcd9c64743\r\x00\x00\x00transport=tcp\x16\x00\x00\x00type=sensor_msgs/Image",
		sub:    []ros.SubOption{ros.WithTransport(ros.TransportTCP), ros.WithFields("header.stamp", "height")},
	},
	{
		name:   "mask rejected",
		offer:  "\xa0\x00\x00\x00\x13\x00\x00\x00callerid=golden_sub\r\x00\x00\x00endian=little\v\x00\x00\x00fields=nope\n\x00\x00\x00format=sfm'\x00\x00\x00md5sum=060021388200f6f0f447d0fcd9c64743\x12\x00\x00\x00topic=golden/image\x16\x00\x00\x00type=sensor_msgs/Image",
		answer: "\xad\x00\x00\x00\x13\x00\x00\x00callerid=golden_pub\r\x00\x00\x00endian=little\x1d\x00\x00\x00fieldsreject=unmappable_field\n\x00\x00\x00format=sfm'\x00\x00\x00md5sum=060021388200f6f0f447d0fcd9c64743\r\x00\x00\x00transport=tcp\x16\x00\x00\x00type=sensor_msgs/Image",
		sub:    []ros.SubOption{ros.WithTransport(ros.TransportTCP), ros.WithFields("nope")},
	},
	{
		name:   "shm and mask offered, no store",
		offer:  "\x19\x01\x00\x00+\x00\x00\x00bootid=238a5550-80bd-4a62-a8dd-9276481c37ab\x13\x00\x00\x00callerid=golden_sub\r\x00\x00\x00endian=little\r\x00\x00\x00fields=height\n\x00\x00\x00format=sfm'\x00\x00\x00md5sum=060021388200f6f0f447d0fcd9c64743\t\x00\x00\x00pid=32429 \x00\x00\x00shmqueue=/dev/shm/rossf-32429-q1\x12\x00\x00\x00topic=golden/image\x13\x00\x00\x00transports=shmq,tcp\x16\x00\x00\x00type=sensor_msgs/Image",
		answer: "\x9c\x00\x00\x00\x13\x00\x00\x00callerid=golden_pub\r\x00\x00\x00endian=little\f\x00\x00\x00fieldwire=v1\n\x00\x00\x00format=sfm'\x00\x00\x00md5sum=060021388200f6f0f447d0fcd9c64743\r\x00\x00\x00transport=tcp\x16\x00\x00\x00type=sensor_msgs/Image",
		sub:    []ros.SubOption{ros.WithTransport(ros.TransportShm), ros.WithFields("height")},
	},
}

// localized re-renders a golden header with the host-specific values
// swapped for this process's.
func localized(t *testing.T, golden string, local map[string]string) []byte {
	t.Helper()
	fields, err := wire.ParseHeader([]byte(golden[4:]))
	if err != nil {
		t.Fatalf("golden header does not parse: %v", err)
	}
	if !bytes.Equal(wire.AppendHeader(nil, fields), []byte(golden)) {
		t.Fatal("golden header is not in canonical encoding")
	}
	for k, v := range local {
		if _, ok := fields[k]; ok {
			fields[k] = v
		}
	}
	return wire.AppendHeader(nil, fields)
}

// readRawHeader takes one length-prefixed connection header off c,
// prefix included.
func readRawHeader(c net.Conn) ([]byte, error) {
	var l [4]byte
	if _, err := io.ReadFull(c, l[:]); err != nil {
		return nil, err
	}
	b := make([]byte, 4+binary.LittleEndian.Uint32(l[:]))
	copy(b, l[:])
	_, err := io.ReadFull(c, b[4:])
	return b, err
}

// TestGoldenHandshakeBytes is the wire-compatibility pin for the
// capability module: a tap between a real subscriber and a real
// publisher records the offer and the answer, and both must be
// byte-identical to what the parent commit sent for the same link. A
// subscriber or publisher of that build therefore cannot tell this one
// from its own.
func TestGoldenHandshakeBytes(t *testing.T) {
	var img sensor_msgs.ImageSF
	for _, g := range goldenHandshakes {
		t.Run(g.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			pubOpts := []ros.Option{ros.WithMaster(ros.NewLocalMaster()), ros.WithMetrics(reg)}
			local := map[string]string{"pid": strconv.Itoa(os.Getpid()), "bootid": shm.BootID()}
			if g.shmStore {
				store := newShmStore(t, reg)
				pubOpts = append(pubOpts, ros.WithShmStore(store))
				local["shmprefix"] = store.Prefix()
			} else if !shm.Available() {
				msgtest.NotVerified(t, "no shared-memory directory on this host: the subscriber offers nothing")
			}
			pubNode := newNodeOpts(t, "golden_pub", pubOpts...)
			pub, err := ros.Advertise[sensor_msgs.ImageSF](pubNode, "golden/image")
			if err != nil {
				t.Fatal(err)
			}
			defer pub.Close()

			// The tap: the subscriber's master names it as the publisher.
			tap, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer tap.Close()
			type capture struct {
				offer, answer []byte
				err           error
			}
			got := make(chan capture, 1)
			go func() {
				var c capture
				defer func() { got <- c }()
				down, err := tap.Accept()
				if err != nil {
					c.err = err
					return
				}
				defer down.Close()
				up, err := net.Dial("tcp", pubNode.Addr())
				if err != nil {
					c.err = err
					return
				}
				defer up.Close()
				if c.offer, c.err = readRawHeader(down); c.err != nil {
					return
				}
				up.Write(c.offer)
				if c.answer, c.err = readRawHeader(up); c.err != nil {
					return
				}
				down.Write(c.answer)
			}()

			sm := ros.NewLocalMaster()
			if _, err := sm.RegisterPublisher("golden/image", ros.PublisherInfo{
				NodeName: "golden_pub", Addr: tap.Addr().String(),
				TypeName: img.ROSMessageType(), MD5: img.ROSMD5Sum(),
			}); err != nil {
				t.Fatal(err)
			}
			subNode := newNodeOpts(t, "golden_sub", ros.WithMaster(sm), ros.WithMetrics(reg))
			sub, err := ros.Subscribe(subNode, "golden/image", func(*sensor_msgs.ImageSF) {}, g.sub...)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()

			c := <-got
			if c.err != nil {
				t.Fatalf("tap: %v", c.err)
			}
			// The queue's name is this dial's own: private to the process,
			// under the shm directory, and gone once the answer is in.
			if offered, err := wire.ParseHeader(c.offer[4:]); err == nil && offered["shmqueue"] != "" {
				q := offered["shmqueue"]
				if ok, _ := filepath.Match(filepath.Join(shm.Dir(), "rossf-"+local["pid"]+"-q*"), q); !ok {
					t.Errorf("offered queue %q is not a private name under %s", q, shm.Dir())
				}
				eventually(t, "the offered queue's name to be unlinked", func() bool {
					_, err := os.Lstat(q)
					return os.IsNotExist(err)
				})
				local["shmqueue"] = q
			}
			if want := localized(t, g.offer, local); !bytes.Equal(c.offer, want) {
				t.Errorf("offer differs from the parent commit's\n got %q\nwant %q", c.offer, want)
			}
			if want := localized(t, g.answer, local); !bytes.Equal(c.answer, want) {
				t.Errorf("answer differs from the parent commit's\n got %q\nwant %q", c.answer, want)
			}
		})
	}
}
