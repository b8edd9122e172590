package nettrans

import (
	"fmt"
)

// Protocol identity, checked on every accepted control connection so a
// stray client (or a version-skewed worker) is rejected with a clear
// error instead of a garbled run.
const (
	// Magic opens every Hello payload ("VSTW").
	Magic uint32 = 0x56535457
	// Version is the wire-protocol version; coordinator and workers must
	// match exactly — the frame layout has no compatibility machinery, so
	// every change to a control-plane payload's layout, to the set of frame
	// types, or to what a field means, raises it.
	Version uint32 = 17
)

// Hello is the worker's opening message on the coordinator connection:
// protocol identity plus the address of its own data-plane listener,
// which the coordinator redistributes so workers can mesh directly.
type Hello struct {
	DataAddr string
	// StartUnixNano is the wall-clock instant of the worker observer's
	// run start (0 when the worker runs uninstrumented). The coordinator
	// uses the exchanged values to rebase worker trace clocks onto its
	// own in the merged cluster trace.
	StartUnixNano int64
}

// AppendHello serializes a Hello.
func AppendHello(dst []byte, h Hello) []byte {
	dst = AppendU32(dst, Magic)
	dst = AppendU32(dst, Version)
	dst = AppendStr(dst, h.DataAddr)
	dst = AppendI64(dst, h.StartUnixNano)
	return dst
}

// DecodeHello validates and parses a Hello payload.
func DecodeHello(p []byte) (Hello, error) {
	d := NewDec(p)
	if m := d.U32(); d.Err() == nil && m != Magic {
		return Hello{}, fmt.Errorf("nettrans: bad magic 0x%08x (not a vsim worker?)", m)
	}
	if v := d.U32(); d.Err() == nil && v != Version {
		return Hello{}, fmt.Errorf("nettrans: protocol version %d, this build speaks %d", v, Version)
	}
	h := Hello{DataAddr: d.Str(), StartUnixNano: d.I64()}
	if err := d.Err(); err != nil {
		return Hello{}, fmt.Errorf("nettrans: malformed hello: %w", err)
	}
	return h, nil
}

// PeerHello identifies the dialing worker on a data-plane connection.
type PeerHello struct {
	WorkerID int
}

// AppendPeerHello serializes a PeerHello.
func AppendPeerHello(dst []byte, h PeerHello) []byte {
	dst = AppendU32(dst, Magic)
	dst = AppendU32(dst, uint32(h.WorkerID))
	return dst
}

// DecodePeerHello validates and parses a PeerHello, checking the worker
// id against the expected mesh size.
func DecodePeerHello(p []byte, numWorkers int) (PeerHello, error) {
	d := NewDec(p)
	if m := d.U32(); d.Err() == nil && m != Magic {
		return PeerHello{}, fmt.Errorf("nettrans: bad magic 0x%08x on data connection", m)
	}
	h := PeerHello{WorkerID: int(d.U32())}
	if err := d.Err(); err != nil {
		return PeerHello{}, fmt.Errorf("nettrans: malformed peer hello: %w", err)
	}
	if h.WorkerID < 0 || h.WorkerID >= numWorkers {
		return PeerHello{}, fmt.Errorf("nettrans: peer hello from worker %d, mesh has %d", h.WorkerID, numWorkers)
	}
	return h, nil
}
