package wire

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Connection-header codec. TCPROS-style headers open every topic and
// service connection: a u32 total size, then per field a u32 length and
// a "key=value" body. The codec lives here (not in internal/ros) so the
// parser can be fuzzed in isolation and shared with tooling.
//
// Negotiation contract: unknown keys are preserved, never rejected. A
// build that does not understand a key simply leaves it untouched, which
// is what keeps old and new builds interoperable — in particular, the
// shared-memory transport negotiation ("transports", "transport") is
// pure extension: an old publisher ignores the subscriber's offer and an
// old subscriber never sees a transport selection, so both ends converge
// on plain TCP framing.

// ErrHeader reports a malformed connection header.
var ErrHeader = errors.New("wire: malformed connection header")

// Transport names negotiated through the "transports" (offer) and
// "transport" (selection) header fields.
const (
	// TransportNameTCP is the universal fallback: message bytes framed
	// over the connection itself.
	TransportNameTCP = "tcp"
	// TransportNameShm passes shared-memory descriptors instead of message
	// bytes (same-machine peers only), through a FIFO frame queue the
	// subscriber names in its offer. Builds that passed descriptors over
	// the connection itself called theirs "shm"; the names differ so a
	// mixed pair shares only "tcp" and converges on it.
	TransportNameShm = "shmq"
)

// AppendHeader encodes fields as a connection header (size prefix
// included) and appends it to dst. Fields are emitted in sorted key
// order so the encoding is deterministic.
func AppendHeader(dst []byte, fields map[string]string) []byte {
	keys := make([]string, 0, len(fields))
	total := 0
	for k := range fields {
		keys = append(keys, k)
		total += 4 + len(k) + 1 + len(fields[k])
	}
	sort.Strings(keys)
	dst = appendU32(dst, uint32(total))
	for _, k := range keys {
		kv := k + "=" + fields[k]
		dst = appendU32(dst, uint32(len(kv)))
		dst = append(dst, kv...)
	}
	return dst
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// ParseHeader decodes a connection-header body (the bytes after the
// total-size prefix) into its fields. Duplicate keys keep the last
// value, as in TCPROS.
func ParseHeader(body []byte) (map[string]string, error) {
	r := NewReader(body)
	fields := make(map[string]string)
	for r.Remaining() > 0 {
		n := int(r.U32())
		kv := r.Raw(n)
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrHeader, err)
		}
		k, v, ok := strings.Cut(string(kv), "=")
		if !ok {
			return nil, fmt.Errorf("%w: field %q has no '='", ErrHeader, kv)
		}
		fields[k] = v
	}
	return fields, nil
}

// ParseTransports splits a "transports" offer ("shm,tcp") into its
// normalized names: lower-cased, trimmed, empties dropped. Unknown names
// are preserved — the chooser, not the parser, decides what is usable.
func ParseTransports(offer string) []string {
	if offer == "" {
		return nil
	}
	parts := strings.Split(offer, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.ToLower(strings.TrimSpace(p))
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// OffersTransport reports whether the offer lists name.
func OffersTransport(offer, name string) bool {
	for _, t := range ParseTransports(offer) {
		if t == name {
			return true
		}
	}
	return false
}

// NegotiateTransport picks the connection's transport from the
// subscriber's offer. shmOK is the publisher-side capability check
// (store present, same boot id, peer slot available). The result is
// always a transport both ends speak: anything other than a mutual,
// capable "shm" — an empty offer (old build), an unknown name, a
// declined capability — converges on TCP.
func NegotiateTransport(offer string, shmOK bool) string {
	if shmOK && OffersTransport(offer, TransportNameShm) {
		return TransportNameShm
	}
	return TransportNameTCP
}
