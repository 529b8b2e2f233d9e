package wire

import (
	"encoding/binary"
	"reflect"
	"testing"
)

func TestHeaderRoundTrip(t *testing.T) {
	fields := map[string]string{
		"topic":      "/camera/image",
		"type":       "sensor_msgs/Image",
		"md5sum":     "00112233445566778899aabbccddeeff",
		"callerid":   "node_a",
		"format":     "sfm",
		"endian":     "little",
		"transports": "shm,tcp",
		"pid":        "12345",
		"bootid":     "abc-def",
	}
	enc := AppendHeader(nil, fields)
	total := binary.LittleEndian.Uint32(enc[:4])
	if int(total) != len(enc)-4 {
		t.Fatalf("size prefix %d, body %d", total, len(enc)-4)
	}
	got, err := ParseHeader(enc[4:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fields) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, fields)
	}
}

func TestHeaderEmptyValueAndEquals(t *testing.T) {
	fields := map[string]string{"a": "", "b": "x=y=z"}
	got, err := ParseHeader(AppendHeader(nil, fields)[4:])
	if err != nil {
		t.Fatal(err)
	}
	if got["a"] != "" || got["b"] != "x=y=z" {
		t.Fatalf("got %v", got)
	}
}

func TestParseHeaderRejectsMalformed(t *testing.T) {
	cases := [][]byte{
		{1, 0, 0, 0},                     // field length past end
		{255, 255, 255, 255},             // absurd field length
		{4, 0, 0, 0, 'a', 'b', 'c', 'd'}, // field without '='
		{0, 0, 0},                        // truncated length
	}
	for _, body := range cases {
		if _, err := ParseHeader(body); err == nil {
			t.Errorf("ParseHeader(%v) accepted malformed header", body)
		}
	}
}

// TestTransportNegotiationConvergence is the forward/backward
// compatibility matrix: whatever one side offers — nothing (old build),
// garbage, future transport names — both ends must converge on a
// transport they share, and shm is chosen only on a mutual, capable
// offer.
func TestTransportNegotiationConvergence(t *testing.T) {
	cases := []struct {
		offer string
		shmOK bool
		want  string
	}{
		{"", true, TransportNameTCP}, // old subscriber: no offer
		{"", false, TransportNameTCP},
		{"tcp", true, TransportNameTCP},         // explicit tcp-only offer
		{"shmq,tcp", true, TransportNameShm},    // mutual capability
		{"shmq,tcp", false, TransportNameTCP},   // publisher declines
		{"shmq", false, TransportNameTCP},       // no fallback listed: still tcp
		{"SHMQ , TCP", true, TransportNameShm},  // case/space normalization
		{"shm,tcp", true, TransportNameTCP},     // descriptor-over-TCP build: a name this one does not speak
		{"quantum,tcp", true, TransportNameTCP}, // unknown future transport
		{"quantum", true, TransportNameTCP},
		{",,,", true, TransportNameTCP},      // degenerate offers
		{"shmq;tcp", true, TransportNameTCP}, // wrong separator = one unknown name
	}
	for _, c := range cases {
		if got := NegotiateTransport(c.offer, c.shmOK); got != c.want {
			t.Errorf("NegotiateTransport(%q, %v) = %q, want %q", c.offer, c.shmOK, got, c.want)
		}
	}
}

func TestParseTransports(t *testing.T) {
	got := ParseTransports(" Shm, tcp ,,x ")
	want := []string{"shm", "tcp", "x"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if ParseTransports("") != nil {
		t.Fatal("empty offer should parse to nil")
	}
}

// FuzzParseHeader throws arbitrary bytes at the header parser — it must
// never panic and every accepted header must re-encode to an equivalent
// field set. Seeds include valid headers with unknown transports values,
// covering the old↔new negotiiation surface.
func FuzzParseHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendHeader(nil, map[string]string{"topic": "/t", "transports": "shmq,tcp"})[4:])
	f.Add(AppendHeader(nil, map[string]string{"topic": "/t", "transports": "shm,tcp"})[4:])
	f.Add(AppendHeader(nil, map[string]string{"transports": "warp9,,SHM;tcp"})[4:])
	f.Add(AppendHeader(nil, map[string]string{"a": "b"})[4:])
	f.Add([]byte{4, 0, 0, 0, 'a', '=', 'b', 'c', 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, body []byte) {
		fields, err := ParseHeader(body)
		if err != nil {
			return
		}
		// Accepted headers must survive a round trip.
		again, err := ParseHeader(AppendHeader(nil, fields)[4:])
		if err != nil {
			t.Fatalf("re-encoded header rejected: %v", err)
		}
		if !reflect.DeepEqual(fields, again) {
			t.Fatalf("round trip changed fields: %v vs %v", fields, again)
		}
		// Whatever the transports value decodes to, negotiation must
		// return a transport both ends speak.
		for _, shmOK := range []bool{true, false} {
			tr := NegotiateTransport(fields["transports"], shmOK)
			if tr != TransportNameTCP && tr != TransportNameShm {
				t.Fatalf("negotiated unknown transport %q", tr)
			}
			if tr == TransportNameShm && !shmOK {
				t.Fatal("negotiated shm without capability")
			}
		}
	})
}
