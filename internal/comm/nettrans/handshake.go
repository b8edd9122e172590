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
	Version uint32 = 16
)

// Hello is the worker's opening message on the coordinator connection:
// protocol identity plus the address of its own data-plane listener,
// which the coordinator redistributes so workers can mesh directly.
type Hello struct {
	DataAddr string
	// StartUnixNano is the wall-clock instant of the worker observer's
	// run start (0 when the worker runs uninstrumented). The coordinator
	// uses the exchanged values to rebase worker trace clocks onto its
	// own in the merged cluster trace. Appended after the original
	// fields; decoders tolerate its absence, so old and new workers
	// interoperate.
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
	h := Hello{DataAddr: d.Str()}
	if d.Err() == nil && d.Len() >= 8 {
		// Optional trailing field from an observability-aware worker.
		h.StartUnixNano = d.I64()
	}
	if err := d.Err(); err != nil {
		return Hello{}, fmt.Errorf("nettrans: malformed hello: %w", err)
	}
	return h, nil
}

// Welcome is the coordinator's answer: the worker's identity, the full
// cluster placement, the peer mesh addresses, and an opaque run-config
// blob owned by the kernel layer (netlist fingerprint, cycle count,
// checkpoint knobs, gate partition — see timewarp's dist config codec).
type Welcome struct {
	WorkerID   int
	NumWorkers int
	K          int
	// Placement maps cluster id → worker id, len K.
	Placement []int32
	// PeerAddrs is each worker's data-plane address, indexed by worker
	// id, len NumWorkers.
	PeerAddrs []string
	// Config is the kernel-owned run configuration blob.
	Config []byte
}

// AppendWelcome serializes a Welcome.
func AppendWelcome(dst []byte, w Welcome) []byte {
	dst = AppendU32(dst, uint32(w.WorkerID))
	dst = AppendU32(dst, uint32(w.NumWorkers))
	dst = AppendU32(dst, uint32(w.K))
	for _, p := range w.Placement {
		dst = AppendU32(dst, uint32(p))
	}
	for _, a := range w.PeerAddrs {
		dst = AppendStr(dst, a)
	}
	dst = AppendBytes(dst, w.Config)
	return dst
}

// DecodeWelcome validates and parses a Welcome payload: counts must be
// sane, the placement exactly K entries each naming a real worker, and
// the peer list exactly NumWorkers long.
func DecodeWelcome(p []byte) (Welcome, error) {
	d := NewDec(p)
	w := Welcome{
		WorkerID:   int(d.U32()),
		NumWorkers: int(d.U32()),
		K:          int(d.U32()),
	}
	if d.Err() == nil {
		const maxSane = 1 << 20
		if w.NumWorkers < 1 || w.NumWorkers > maxSane || w.K < 1 || w.K > maxSane ||
			w.WorkerID < 0 || w.WorkerID >= w.NumWorkers {
			return Welcome{}, fmt.Errorf("nettrans: malformed welcome: worker %d of %d, k=%d",
				w.WorkerID, w.NumWorkers, w.K)
		}
	}
	if d.Err() == nil {
		w.Placement = make([]int32, w.K)
		for i := range w.Placement {
			w.Placement[i] = int32(d.U32())
			if d.Err() == nil && (w.Placement[i] < 0 || int(w.Placement[i]) >= w.NumWorkers) {
				return Welcome{}, fmt.Errorf("nettrans: placement assigns cluster %d to worker %d of %d",
					i, w.Placement[i], w.NumWorkers)
			}
		}
		w.PeerAddrs = make([]string, w.NumWorkers)
		for i := range w.PeerAddrs {
			w.PeerAddrs[i] = d.Str()
		}
		w.Config = append([]byte(nil), d.Bytes()...)
	}
	if err := d.Err(); err != nil {
		return Welcome{}, fmt.Errorf("nettrans: malformed welcome: %w", err)
	}
	return w, nil
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
