package ros

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rossf/internal/core"
	"rossf/internal/obs"
	"rossf/internal/wire"
)

// Services are the request/response half of the middleware, analogous
// to rosservice. A service connection shares the node's topic listener:
// the connection header carries a "service" key instead of "topic",
// then the client streams request frames and the server answers each
// with a 1-byte status (1 = ok, 0 = error string follows) plus the
// response frame, as in ROS1's service protocol. Both regimes work:
// serialization-free requests and responses travel as arena bytes.

const (
	hdrService = "service"
	hdrReqType = "request_type"
	hdrRspType = "response_type"
)

// ErrServiceNotFound reports an unresolvable service name.
var ErrServiceNotFound = errors.New("ros: service not found")

// ServiceError is a handler-reported failure delivered to the caller.
type ServiceError struct {
	Service string
	Msg     string
}

func (e *ServiceError) Error() string {
	return fmt.Sprintf("ros: service %q failed: %s", e.Service, e.Msg)
}

// ServiceServer is a registered service. Close withdraws it.
type ServiceServer struct {
	ep *serviceEndpoint
}

// Close unregisters the service and disconnects callers.
func (s *ServiceServer) Close() { s.ep.close() }

// Name returns the service name.
func (s *ServiceServer) Name() string { return s.ep.name }

// serviceEndpoint is the type-erased per-service server state.
type serviceEndpoint struct {
	node     *Node
	name     string
	reqType  string
	respType string
	md5      string
	sfm      bool
	// handle answers one request with the reply as a queue item: its
	// bytes, plus the arena reference to drop once they are written.
	handle     func(reqFrame []byte, srcLittle bool) (frameItem, error)
	unregister func()
	stats      *obs.ServiceStats // nil when the node's metrics are disabled

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// AdvertiseService registers a handler under a service name — the
// analog of NodeHandle::advertiseService. Req and Resp must both be
// generated message types of the same regime (both regular or both
// serialization-free).
//
// For serialization-free types the handler's request is the received
// buffer adopted in place and is released when the handler returns; the
// handler must build its response with core.New (the server releases it
// after transmission).
func AdvertiseService[Req, Resp any](n *Node, name string,
	handler func(*Req) (*Resp, error)) (*ServiceServer, error) {
	reqType, reqMD5, ok := typeInfoOf[Req]()
	if !ok {
		return nil, fmt.Errorf("ros: request type %T is not a message", new(Req))
	}
	respType, respMD5, ok := typeInfoOf[Resp]()
	if !ok {
		return nil, fmt.Errorf("ros: response type %T is not a message", new(Resp))
	}
	reqSFM, respSFM := isSFMType[Req](), isSFMType[Resp]()
	if reqSFM != respSFM {
		return nil, fmt.Errorf("ros: request and response must share a wire regime")
	}
	if n.addr == "" {
		return nil, errors.New("ros: serving requires a node listener")
	}

	ep := &serviceEndpoint{
		node:     n,
		name:     name,
		reqType:  reqType,
		respType: respType,
		md5:      reqMD5 + respMD5,
		sfm:      reqSFM,
		stats:    n.metrics.Service(name),
		conns:    make(map[net.Conn]struct{}),
	}
	if reqSFM {
		layout, err := core.LayoutOf[Req]()
		if err != nil {
			return nil, err
		}
		ep.handle = sfmServiceHandler(handler, layout)
	} else {
		if !isSerializableType[Req]() || !isSerializableType[Resp]() {
			return nil, fmt.Errorf("ros: service types must be Serializable or SFM")
		}
		ep.handle = regularServiceHandler(handler)
	}

	if err := n.registerService(name, ep); err != nil {
		return nil, err
	}
	unregister, err := n.master.RegisterService(name, ServiceInfo{
		NodeName: n.name, Addr: n.addr,
		ReqType: reqType, RespType: respType, MD5: ep.md5,
	})
	if err != nil {
		n.unregisterService(name)
		return nil, err
	}
	ep.unregister = unregister
	return &ServiceServer{ep: ep}, nil
}

// regularServiceHandler wraps a handler over the ROS1 pipeline.
func regularServiceHandler[Req, Resp any](handler func(*Req) (*Resp, error)) func([]byte, bool) (frameItem, error) {
	return func(reqFrame []byte, _ bool) (frameItem, error) {
		req := new(Req)
		s, _ := any(req).(Serializable)
		if err := s.DeserializeROS(wire.NewReader(reqFrame)); err != nil {
			return frameItem{}, fmt.Errorf("malformed request: %v", err)
		}
		resp, err := handler(req)
		if err != nil {
			return frameItem{}, err
		}
		rs, ok := any(resp).(Serializable)
		if !ok || resp == nil {
			return frameItem{}, errors.New("handler returned no response")
		}
		w := wire.NewWriter(rs.SerializedSizeROS())
		if err := rs.SerializeROS(w); err != nil {
			return frameItem{}, err
		}
		return frameItem{data: w.Bytes()}, nil
	}
}

// sfmServiceHandler wraps a handler over the serialization-free
// pipeline: the request buffer is adopted, the response's arena bytes
// are the reply frame.
func sfmServiceHandler[Req, Resp any](handler func(*Req) (*Resp, error), layout *core.Layout) func([]byte, bool) (frameItem, error) {
	return func(reqFrame []byte, srcLittle bool) (frameItem, error) {
		buf := core.Default().GetBuffer(len(reqFrame))
		image := buf.Bytes()[:len(reqFrame)]
		copy(image, reqFrame)
		if err := core.ConvertEndianness(image, layout, srcLittle); err != nil {
			buf.Discard()
			return frameItem{}, err
		}
		req, reqRef, err := core.AdoptRef[Req](buf, len(reqFrame))
		if err != nil {
			buf.Discard()
			return frameItem{}, err
		}
		resp, err := handler(req)
		reqRef.Release()
		if err != nil {
			return frameItem{}, err
		}
		if resp == nil {
			return frameItem{}, errors.New("handler returned no response")
		}
		// The reply item holds the arena until the frame is written; the
		// handler's own reference to its response ends here.
		ref, err := core.NewRef(resp)
		if err != nil {
			return frameItem{}, err
		}
		core.Release(resp)
		return frameItem{data: ref.Bytes(), ref: ref}, nil
	}
}

// writeStatusFrame sends a call's 1-byte status together with its
// response (or error-string) frame as one vectored write: the caller
// can never observe a status byte whose frame was cut off between two
// syscalls, and the common case costs one syscall instead of three.
func writeStatusFrame(conn net.Conn, status byte, payload []byte) error {
	var hdr [1 + wire.FrameHeaderSize]byte
	hdr[0] = status
	wire.PutFrameHeader(hdr[1:], len(payload), wire.Checksum(payload))
	bufs := net.Buffers{hdr[:], payload}
	_, err := bufs.WriteTo(conn)
	return err
}

// serveCall runs the per-connection request loop.
func (ep *serviceEndpoint) serveCall(conn net.Conn, req map[string]string) error {
	if req[hdrReqType] != ep.reqType || req[hdrRspType] != ep.respType {
		return refuse(conn, fmt.Sprintf("service %q is %s->%s", ep.name, ep.reqType, ep.respType))
	}
	if req[hdrMD5] != ep.md5 {
		return refuse(conn, fmt.Sprintf("md5 mismatch on service %q", ep.name))
	}
	wantFormat := formatName(ep.sfm)
	if req[hdrFormat] != wantFormat {
		return refuse(conn, fmt.Sprintf("format mismatch on service %q", ep.name))
	}
	err := writeHeader(conn, map[string]string{
		hdrCallerID: ep.node.name,
		hdrMD5:      ep.md5,
		hdrFormat:   wantFormat,
		hdrEndian:   nativeEndianName(core.NativeLittleEndian()),
	})
	if err != nil {
		return err
	}
	conn.SetDeadline(time.Time{})
	srcLittle := req[hdrEndian] != endianBig

	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return errors.New("ros: service closed")
	}
	ep.conns[conn] = struct{}{}
	ep.mu.Unlock()
	defer func() {
		ep.mu.Lock()
		delete(ep.conns, conn)
		ep.mu.Unlock()
	}()

	newPump(conn, maxFrameSize, nil).run(&serviceConn{ep: ep, conn: conn, srcLittle: srcLittle}) //nolint:errcheck // client hung up
	return nil
}

// serviceConn decodes one caller's request stream: each frame is a
// request, answered on the same connection before the next is read.
type serviceConn struct {
	ep        *serviceEndpoint
	conn      net.Conn
	srcLittle bool
}

func (c *serviceConn) decode(rx *pump, n int, crc uint32) (bool, error) {
	// Handlers consume the request before returning (deserialize or
	// copy-to-arena), so an in-place batch slice is safe.
	frame, ok, err := rx.frame(n, crc)
	if err != nil {
		return true, err
	}
	ep := c.ep
	var reply frameItem
	var herr error
	var t0 time.Time
	if ep.stats != nil {
		t0 = time.Now()
	}
	if !ok {
		// The request arrived damaged; tell the caller rather than
		// handing garbage to the handler. The connection stays up — the
		// next header is re-validated by magic.
		herr = errors.New("corrupt request frame")
	} else {
		reply, herr = ep.handle(frame, c.srcLittle)
		if herr == nil && len(reply.data) > maxFrameSize {
			// The caller's pump would skip the frame as stream damage and
			// wait for a reply that never comes.
			herr = fmt.Errorf("reply of %d bytes exceeds the frame cap (%d bytes)", len(reply.data), maxFrameSize)
			reply.release()
		}
	}
	if st := ep.stats; st != nil {
		st.Calls.Inc()
		if herr != nil {
			st.Errors.Inc()
		}
		st.Latency.Observe(time.Since(t0))
	}
	// A wedged or vanished caller must not pin this goroutine in a
	// blocked Write forever.
	c.conn.SetWriteDeadline(time.Now().Add(defaultWriteTimeout))
	status := byte(1)
	if herr != nil {
		status, reply = 0, frameItem{data: []byte(herr.Error())}
	}
	werr := writeStatusFrame(c.conn, status, reply.data)
	reply.release()
	if werr != nil {
		return true, werr
	}
	c.conn.SetWriteDeadline(time.Time{})
	return true, nil
}

func (ep *serviceEndpoint) close() {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.closed = true
	conns := make([]net.Conn, 0, len(ep.conns))
	for c := range ep.conns {
		conns = append(conns, c)
	}
	ep.conns = make(map[net.Conn]struct{})
	ep.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	if ep.unregister != nil {
		ep.unregister()
	}
	ep.node.unregisterService(ep.name)
}

// ServiceClient is a persistent connection to one service (the ROS
// "persistent service client"). Use Call repeatedly; Close when done.
// It is not safe for concurrent Calls.
type ServiceClient[Req, Resp any] struct {
	name    string
	conn    net.Conn
	rx      *pump
	sfm     bool
	layout  *core.Layout // response layout for endian conversion (SFM)
	little  bool         // server byte order
	timeout time.Duration

	// status and resp carry one Call's reply between Call and decode.
	status [1]byte
	resp   *Resp
}

// SetCallTimeout bounds each subsequent Call: the whole exchange
// (request write through response read) must finish within d or the
// call fails with a deadline error. Zero (the default) waits forever.
// On an unreliable link a dropped request would otherwise block Call
// indefinitely; with a timeout the caller can retry.
func (c *ServiceClient[Req, Resp]) SetCallTimeout(d time.Duration) { c.timeout = d }

// NewServiceClient resolves and connects to a service.
func NewServiceClient[Req, Resp any](n *Node, name string) (*ServiceClient[Req, Resp], error) {
	reqType, reqMD5, ok := typeInfoOf[Req]()
	if !ok {
		return nil, fmt.Errorf("ros: request type %T is not a message", new(Req))
	}
	respType, respMD5, ok := typeInfoOf[Resp]()
	if !ok {
		return nil, fmt.Errorf("ros: response type %T is not a message", new(Resp))
	}
	sfm := isSFMType[Req]()
	if sfm != isSFMType[Resp]() {
		return nil, fmt.Errorf("ros: request and response must share a wire regime")
	}

	info, found, err := n.master.LookupService(name)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: %q", ErrServiceNotFound, name)
	}
	conn, err := n.dial(info.Addr)
	if err != nil {
		return nil, err
	}
	reply, err := exchange(conn, map[string]string{
		hdrService:  name,
		hdrReqType:  reqType,
		hdrRspType:  respType,
		hdrMD5:      reqMD5 + respMD5,
		hdrCallerID: n.name,
		hdrFormat:   formatName(sfm),
		hdrEndian:   nativeEndianName(core.NativeLittleEndian()),
	})
	if err != nil {
		conn.Close()
		return nil, err
	}

	c := &ServiceClient[Req, Resp]{
		name:   name,
		conn:   conn,
		rx:     newPump(conn, maxFrameSize, nil),
		sfm:    sfm,
		little: reply[hdrEndian] != endianBig,
	}
	if sfm {
		c.layout, err = core.LayoutOf[Resp]()
		if err != nil {
			conn.Close()
			return nil, err
		}
	}
	return c, nil
}

// Close disconnects the client and returns its batch buffer to the
// ingress pool.
func (c *ServiceClient[Req, Resp]) Close() error {
	err := c.conn.Close()
	c.rx.release()
	return err
}

// Call performs one request/response exchange. For serialization-free
// types the returned response is arena-backed: release it with
// core.Release when done.
func (c *ServiceClient[Req, Resp]) Call(req *Req) (*Resp, error) {
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	// Send the request in the appropriate regime.
	if c.sfm {
		frame, err := core.Bytes(req)
		if err != nil {
			return nil, err
		}
		if err := writeFrame(c.conn, frame); err != nil {
			return nil, err
		}
	} else {
		s, ok := any(req).(Serializable)
		if !ok {
			return nil, fmt.Errorf("ros: %T is not serializable", req)
		}
		w := wire.NewWriter(s.SerializedSizeROS())
		if err := s.SerializeROS(w); err != nil {
			return nil, err
		}
		if err := writeFrame(c.conn, w.Bytes()); err != nil {
			return nil, err
		}
	}

	// Status byte, then the response or error frame — all through the
	// shared pump, so the server's single vectored status+frame write is
	// drained by one read wakeup instead of three ReadFull syscalls
	// (status, header, body).
	c.resp = nil
	if err := c.rx.ir.ReadFull(c.status[:]); err != nil {
		return nil, err
	}
	if err := c.rx.step(c); err != nil {
		return nil, err
	}
	if c.resp == nil {
		return nil, fmt.Errorf("ros: service %q reply: %w", c.name, wire.ErrCorruptFrame)
	}
	return c.resp, nil
}

// decode receives one reply frame: the handler's error string, a
// serialized response, or — for serialization-free types — an arena
// image read straight into a fresh buffer.
func (c *ServiceClient[Req, Resp]) decode(rx *pump, n int, crc uint32) (bool, error) {
	if c.status[0] == 0 || !c.sfm {
		frame, ok, err := rx.frame(n, crc)
		if !ok || err != nil {
			return ok, err
		}
		if c.status[0] == 0 {
			return true, &ServiceError{Service: c.name, Msg: string(frame)}
		}
		resp := new(Resp)
		rs, _ := any(resp).(Serializable)
		if err := rs.DeserializeROS(wire.NewReader(frame)); err != nil {
			return true, err
		}
		c.resp = resp
		return true, nil
	}
	buf := core.Default().GetBuffer(n)
	image := buf.Bytes()[:n]
	// Verified before endianness conversion mutates the bytes and before
	// the buffer is adopted — a corrupt frame must never become a live
	// message.
	ok, err := rx.into(image, nil, crc)
	if !ok || err != nil {
		buf.Discard()
		return ok, err
	}
	if err := core.ConvertEndianness(image, c.layout, c.little); err != nil {
		buf.Discard()
		return true, err
	}
	c.resp, err = core.Adopt[Resp](buf, n)
	return true, err
}

// CallService is the one-shot convenience: connect, call once,
// disconnect — ROS's default non-persistent client behavior.
func CallService[Req, Resp any](n *Node, name string, req *Req) (*Resp, error) {
	c, err := NewServiceClient[Req, Resp](n, name)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Call(req)
}
