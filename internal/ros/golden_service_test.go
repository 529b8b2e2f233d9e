package ros_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"net"
	"sync"
	"testing"

	"rossf/internal/core"
	"rossf/internal/msgtest"
	"rossf/internal/ros"
)

// goldenServiceCall is one persistent client's call stream after the
// handshake, in each direction: two request frames (12-byte header,
// then the 16-byte request), answered by an ok reply (status 1, then
// the 8-byte response frame) and an error reply (status 0, then a frame
// of the handler's error string). The bytes were taken by running
// TestGoldenServiceBytes against commit 7506f65; any move of the
// service writers must leave them as they are.
var goldenServiceCall = struct{ request, reply string }{
	request: "5253464d100000009a00056c" + "08070605040302011000000000000000" +
		"5253464d10000000134f18b9" + "ffffffffffffffff0200000000000000",
	reply: "01" + "5253464d08000000a80b8fa2" + "1807060504030201" +
		"00" + "5253464d10000000703834eb" + "6e65676174697665206f706572616e64",
}

// tapConn records every byte a client connection sends and receives.
type tapConn struct {
	net.Conn
	mu         sync.Mutex
	sent, recv bytes.Buffer
}

func (c *tapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.sent.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.recv.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// afterHeader strips the connection header (a little-endian length,
// then that many bytes) that leads a stream.
func afterHeader(t *testing.T, stream []byte) []byte {
	t.Helper()
	if len(stream) < 4 {
		t.Fatalf("stream of %d bytes has no header", len(stream))
	}
	n := 4 + int(binary.LittleEndian.Uint32(stream))
	if n > len(stream) {
		t.Fatalf("header of %d bytes overruns a %d-byte stream", n, len(stream))
	}
	return stream[n:]
}

// TestGoldenServiceBytes pins the service wire protocol: a request
// frame, an ok reply (status byte outside the frame, then the response
// frame) and an error reply (status 0, then the error string as a
// frame), byte for byte.
func TestGoldenServiceBytes(t *testing.T) {
	if !core.NativeLittleEndian() {
		msgtest.NotVerified(t, "the goldens were taken on a little-endian host")
	}
	m := ros.NewLocalMaster()
	serverNode := newNode(t, "server", m)
	var tap *tapConn
	clientNode := newNodeOpts(t, "client", ros.WithMaster(m), ros.WithDialer(func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		tap = &tapConn{Conn: c}
		return tap, nil
	}))
	srv, err := ros.AdvertiseService(serverNode, "golden/sum", func(req *sumRequest) (*sumResponse, error) {
		if req.A < 0 {
			return nil, errors.New("negative operand")
		}
		return &sumResponse{Sum: req.A + req.B}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := ros.NewServiceClient[sumRequest, sumResponse](clientNode, "golden/sum")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Call(&sumRequest{A: 0x0102030405060708, B: 0x10})
	if err != nil || resp.Sum != 0x0102030405060718 {
		t.Fatalf("ok call = %v, %v", resp, err)
	}
	var se *ros.ServiceError
	if _, err := c.Call(&sumRequest{A: -1, B: 2}); !errors.As(err, &se) {
		t.Fatalf("error call: %v, want a ServiceError", err)
	}
	c.Close()

	tap.mu.Lock()
	defer tap.mu.Unlock()
	for _, d := range []struct {
		name         string
		stream, want string
	}{
		{"request", hex.EncodeToString(afterHeader(t, tap.sent.Bytes())), goldenServiceCall.request},
		{"reply", hex.EncodeToString(afterHeader(t, tap.recv.Bytes())), goldenServiceCall.reply},
	} {
		if d.stream != d.want {
			t.Errorf("%s stream\n got %s\nwant %s", d.name, d.stream, d.want)
		}
	}
}
