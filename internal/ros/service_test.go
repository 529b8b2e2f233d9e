package ros_test

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rossf/internal/core"
	"rossf/internal/ros"
	"rossf/internal/wire"
)

// Hand-written service pair for tests (regular regime).
type sumRequest struct {
	A, B int64
}

func (*sumRequest) ROSMessageType() string { return "test_srvs/SumRequest" }
func (*sumRequest) ROSMD5Sum() string      { return "11111111111111111111111111111111" }
func (*sumRequest) SerializedSizeROS() int { return 16 }
func (m *sumRequest) SerializeROS(w *wire.Writer) error {
	w.I64(m.A)
	w.I64(m.B)
	return nil
}
func (m *sumRequest) DeserializeROS(r *wire.Reader) error {
	m.A = r.I64()
	m.B = r.I64()
	return r.Err()
}

type sumResponse struct {
	Sum int64
}

func (*sumResponse) ROSMessageType() string { return "test_srvs/SumResponse" }
func (*sumResponse) ROSMD5Sum() string      { return "22222222222222222222222222222222" }
func (*sumResponse) SerializedSizeROS() int { return 8 }
func (m *sumResponse) SerializeROS(w *wire.Writer) error {
	w.I64(m.Sum)
	return nil
}
func (m *sumResponse) DeserializeROS(r *wire.Reader) error {
	m.Sum = r.I64()
	return r.Err()
}

// SFM service pair.
type blobRequest struct {
	N    uint32
	Seed uint32
}

func (*blobRequest) ROSMessageType() string { return "test_srvs/BlobRequest" }
func (*blobRequest) ROSMD5Sum() string      { return "33333333333333333333333333333333" }
func (*blobRequest) SFMMessage()            {}

type blobResponse struct {
	Label core.String
	Data  core.Vector[uint8]
}

func (*blobResponse) ROSMessageType() string { return "test_srvs/BlobResponse" }
func (*blobResponse) ROSMD5Sum() string      { return "44444444444444444444444444444444" }
func (*blobResponse) SFMMessage()            {}

func TestServiceRegularCall(t *testing.T) {
	m := ros.NewLocalMaster()
	serverNode := newNode(t, "server", m)
	clientNode := newNode(t, "client", m)

	srv, err := ros.AdvertiseService(serverNode, "math/sum", func(req *sumRequest) (*sumResponse, error) {
		return &sumResponse{Sum: req.A + req.B}, nil
	})
	if err != nil {
		t.Fatalf("AdvertiseService: %v", err)
	}
	defer srv.Close()

	resp, err := ros.CallService[sumRequest, sumResponse](clientNode, "math/sum",
		&sumRequest{A: 20, B: 22})
	if err != nil {
		t.Fatalf("CallService: %v", err)
	}
	if resp.Sum != 42 {
		t.Errorf("Sum = %d", resp.Sum)
	}
}

func TestServiceHandlerErrorPropagates(t *testing.T) {
	m := ros.NewLocalMaster()
	serverNode := newNode(t, "server", m)
	clientNode := newNode(t, "client", m)

	srv, err := ros.AdvertiseService(serverNode, "math/div", func(req *sumRequest) (*sumResponse, error) {
		if req.B == 0 {
			return nil, errors.New("division by zero")
		}
		return &sumResponse{Sum: req.A / req.B}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	_, err = ros.CallService[sumRequest, sumResponse](clientNode, "math/div",
		&sumRequest{A: 1, B: 0})
	var se *ros.ServiceError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "division by zero") {
		t.Errorf("err = %v, want ServiceError(division by zero)", err)
	}

	// The connection-per-call model recovers: the next call succeeds.
	resp, err := ros.CallService[sumRequest, sumResponse](clientNode, "math/div",
		&sumRequest{A: 9, B: 3})
	if err != nil || resp.Sum != 3 {
		t.Errorf("follow-up call = %v, %v", resp, err)
	}
}

func TestServicePersistentClient(t *testing.T) {
	m := ros.NewLocalMaster()
	serverNode := newNode(t, "server", m)
	clientNode := newNode(t, "client", m)

	srv, err := ros.AdvertiseService(serverNode, "math/sum", func(req *sumRequest) (*sumResponse, error) {
		return &sumResponse{Sum: req.A + req.B}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := ros.NewServiceClient[sumRequest, sumResponse](clientNode, "math/sum")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := int64(0); i < 10; i++ {
		resp, err := c.Call(&sumRequest{A: i, B: i})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if resp.Sum != 2*i {
			t.Errorf("call %d: sum = %d", i, resp.Sum)
		}
	}
}

func TestServiceSFMZeroCopy(t *testing.T) {
	m := ros.NewLocalMaster()
	serverNode := newNode(t, "server", m)
	clientNode := newNode(t, "client", m)

	srv, err := ros.AdvertiseService(serverNode, "blob/make", func(req *blobRequest) (*blobResponse, error) {
		resp, err := core.NewWithCapacity[blobResponse](1 << 16)
		if err != nil {
			return nil, err
		}
		if err := resp.Label.Set("blob"); err != nil {
			return nil, err
		}
		if err := resp.Data.Resize(int(req.N)); err != nil {
			return nil, err
		}
		for i := range resp.Data.Slice() {
			resp.Data.Slice()[i] = byte(uint32(i) + req.Seed)
		}
		return resp, nil
	})
	if err != nil {
		t.Fatalf("AdvertiseService SFM: %v", err)
	}
	defer srv.Close()

	req, err := core.NewWithCapacity[blobRequest](4096)
	if err != nil {
		t.Fatal(err)
	}
	req.N, req.Seed = 100, 7
	resp, err := ros.CallService[blobRequest, blobResponse](clientNode, "blob/make", req)
	core.Release(req)
	if err != nil {
		t.Fatalf("CallService: %v", err)
	}
	defer core.Release(resp)

	if resp.Label.Get() != "blob" || resp.Data.Len() != 100 {
		t.Errorf("resp = %q, %d bytes", resp.Label.Get(), resp.Data.Len())
	}
	if resp.Data.Slice()[10] != 17 {
		t.Errorf("data[10] = %d, want 17", resp.Data.Slice()[10])
	}
	if st, _ := core.StateOf(resp); st != core.StatePublished {
		t.Errorf("response state = %v, want Published", st)
	}
}

func TestServiceUnknownName(t *testing.T) {
	m := ros.NewLocalMaster()
	clientNode := newNode(t, "client", m)
	_, err := ros.CallService[sumRequest, sumResponse](clientNode, "no/such", &sumRequest{})
	if !errors.Is(err, ros.ErrServiceNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestServiceDuplicateNameRejected(t *testing.T) {
	m := ros.NewLocalMaster()
	serverNode := newNode(t, "server", m)
	h := func(req *sumRequest) (*sumResponse, error) { return &sumResponse{}, nil }
	if _, err := ros.AdvertiseService(serverNode, "dup", h); err != nil {
		t.Fatal(err)
	}
	otherNode := newNode(t, "other", m)
	if _, err := ros.AdvertiseService(otherNode, "dup", h); err == nil {
		t.Error("duplicate service accepted")
	}
}

func TestServiceMixedRegimeRejected(t *testing.T) {
	m := ros.NewLocalMaster()
	serverNode := newNode(t, "server", m)
	_, err := ros.AdvertiseService(serverNode, "mixed",
		func(req *blobRequest) (*sumResponse, error) { return nil, nil })
	if err == nil || !strings.Contains(err.Error(), "regime") {
		t.Errorf("err = %v", err)
	}
}

func TestServiceTypeMismatchRefused(t *testing.T) {
	m := ros.NewLocalMaster()
	serverNode := newNode(t, "server", m)
	clientNode := newNode(t, "client", m)
	if _, err := ros.AdvertiseService(serverNode, "math/sum",
		func(req *sumRequest) (*sumResponse, error) { return &sumResponse{}, nil }); err != nil {
		t.Fatal(err)
	}
	// Call with the wrong request type: the handshake must refuse.
	_, err := ros.CallService[otherType, sumResponse](clientNode, "math/sum", &otherType{})
	if !errors.Is(err, ros.ErrHandshake) {
		t.Errorf("err = %v, want handshake refusal", err)
	}
}

func TestServiceOverRemoteMaster(t *testing.T) {
	srv, err := ros.NewMasterServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sm, err := ros.DialMaster(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	cm, err := ros.DialMaster(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cm.Close()

	serverNode := newNode(t, "server", sm)
	clientNode := newNode(t, "client", cm)

	svc, err := ros.AdvertiseService(serverNode, "remote/sum",
		func(req *sumRequest) (*sumResponse, error) {
			return &sumResponse{Sum: req.A + req.B}, nil
		})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := ros.CallService[sumRequest, sumResponse](clientNode, "remote/sum",
		&sumRequest{A: 5, B: 6})
	if err != nil {
		t.Fatalf("cross-process call: %v", err)
	}
	if resp.Sum != 11 {
		t.Errorf("Sum = %d", resp.Sum)
	}

	// After Close the service resolves to nothing.
	svc.Close()
	_, err = ros.CallService[sumRequest, sumResponse](clientNode, "remote/sum", &sumRequest{})
	if !errors.Is(err, ros.ErrServiceNotFound) {
		t.Errorf("post-close err = %v", err)
	}
}

// TestServiceFrameCap: a plain TCP link carries frames of at most
// ros.MaxTCPFrameBytes, and a receiver skips a larger one as stream
// damage. So neither side may write one: a reply above the cap comes
// back as a handler error, a request above it fails before any byte is
// written, and the connection serves the next call either way.
func TestServiceFrameCap(t *testing.T) {
	const big = ros.MaxTCPFrameBytes
	m := ros.NewLocalMaster()
	serverNode := newNode(t, "server", m)
	clientNode := newNode(t, "client", m)

	var calls atomic.Int32
	blob, err := ros.AdvertiseService(serverNode, "blob/make", func(req *blobRequest) (*blobResponse, error) {
		resp, err := core.NewWithCapacity[blobResponse](int(req.N) + 4096)
		if err != nil {
			return nil, err
		}
		return resp, resp.Data.Resize(int(req.N))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer blob.Close()
	sink, err := ros.AdvertiseService(serverNode, "blob/take", func(req *blobResponse) (*blobRequest, error) {
		calls.Add(1)
		resp, err := core.NewWithCapacity[blobRequest](4096)
		if err != nil {
			return nil, err
		}
		resp.N = uint32(req.Data.Len())
		return resp, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	t.Run("reply", func(t *testing.T) {
		c, err := ros.NewServiceClient[blobRequest, blobResponse](clientNode, "blob/make")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetCallTimeout(10 * time.Second) // an over-cap reply used to hang the call
		req, err := core.NewWithCapacity[blobRequest](4096)
		if err != nil {
			t.Fatal(err)
		}
		defer core.Release(req)
		req.N = big
		var se *ros.ServiceError
		if _, err := c.Call(req); !errors.As(err, &se) || !strings.Contains(se.Msg, "exceeds the frame cap") {
			t.Fatalf("over-cap reply: err = %v, want a ServiceError naming the frame cap", err)
		}
		req.N = 100
		resp, err := c.Call(req)
		if err != nil {
			t.Fatalf("call after the refused reply: %v", err)
		}
		if n := resp.Data.Len(); n != 100 {
			t.Errorf("follow-up reply has %d bytes, want 100", n)
		}
		core.Release(resp)
	})

	t.Run("request", func(t *testing.T) {
		c, err := ros.NewServiceClient[blobResponse, blobRequest](clientNode, "blob/take")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetCallTimeout(10 * time.Second)
		req, err := core.NewWithCapacity[blobResponse](big + 4096)
		if err != nil {
			t.Fatal(err)
		}
		defer core.Release(req)
		if err := req.Data.Resize(big); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Call(req); err == nil || !strings.Contains(err.Error(), "exceeds the frame cap") {
			t.Fatalf("over-cap request: err = %v, want a refusal naming the frame cap", err)
		}
		small, err := core.NewWithCapacity[blobResponse](4096)
		if err != nil {
			t.Fatal(err)
		}
		defer core.Release(small)
		if err := small.Data.Resize(100); err != nil {
			t.Fatal(err)
		}
		resp, err := c.Call(small)
		if err != nil {
			t.Fatalf("call after the refused request: %v", err)
		}
		if resp.N != 100 {
			t.Errorf("server saw %d request bytes, want 100", resp.N)
		}
		core.Release(resp)
		if n := calls.Load(); n != 1 {
			t.Errorf("handler ran %d times, want 1: the refused request reached the server", n)
		}
	})
}
