package timewarp

import (
	"fmt"
	"math"

	"repro/internal/comm/nettrans"
	"repro/internal/obs"
)

// The trace-federation payload of the control plane: the body of
// FrameTrace, a batch of trace-ring events. It sits on nettrans.Dec like
// every other control payload in distproto.go — internal/obs holds no
// wire code, which is what keeps obs ← nettrans ← timewarp acyclic — and
// meets the same hostile-input contract: every malformed payload is an
// error, never a panic, and no count drives an allocation bigger than the
// payload that carries it. The codec is exported for its round-trip,
// truncation and hostile-input tests, which stay with the obs type whose
// wire image they pin (internal/obs/fedwire_test.go, an external test
// package).

// traceVersion versions the trace-batch wire format.
const traceVersion byte = 1

// maxTraceEvents bounds the event count a decoded batch may claim.
const maxTraceEvents = 1 << 20

// AppendTraceEvents serializes a batch of trace events plus the ring's
// cumulative drop count into the compact binary form shipped over
// FrameTrace.
func AppendTraceEvents(dst []byte, events []obs.Event, dropped uint64) []byte {
	dst = nettrans.AppendU8(dst, traceVersion)
	dst = nettrans.AppendU64(dst, dropped)
	dst = nettrans.AppendU32(dst, uint32(len(events)))
	for _, e := range events {
		dst = nettrans.AppendI64(dst, e.Ts)
		dst = nettrans.AppendI64(dst, e.Dur)
		dst = nettrans.AppendU32(dst, uint32(e.Track))
		dst = nettrans.AppendU8(dst, e.Phase)
		dst = nettrans.AppendU64(dst, e.ID)
		dst = nettrans.AppendStr(dst, e.Name)
		n := byte(0)
		for _, a := range e.Args {
			if a.Key != "" {
				n++
			}
		}
		dst = nettrans.AppendU8(dst, n)
		for _, a := range e.Args {
			if a.Key == "" {
				continue
			}
			dst = nettrans.AppendStr(dst, a.Key)
			dst = nettrans.AppendU64(dst, math.Float64bits(a.Val))
		}
	}
	return dst
}

// DecodeTraceEvents parses a batch produced by AppendTraceEvents: counts
// are validated against the remaining payload before any allocation.
func DecodeTraceEvents(p []byte) (events []obs.Event, dropped uint64, err error) {
	d := nettrans.NewDec(p)
	if v := d.U8(); d.Err() == nil && v != traceVersion {
		return nil, 0, fmt.Errorf("timewarp: trace batch version %d, this build speaks %d", v, traceVersion)
	}
	dropped = d.U64()
	n := d.U32()
	if d.Err() == nil {
		// An event needs at least 34 bytes (fixed fields + two prefixes).
		if n > maxTraceEvents || uint64(n)*34 > uint64(d.Len()) {
			return nil, 0, fmt.Errorf("timewarp: trace batch claims %d events in %d bytes", n, d.Len())
		}
		events = make([]obs.Event, n)
		for i := range events {
			events[i].Ts = d.I64()
			events[i].Dur = d.I64()
			events[i].Track = int32(d.U32())
			events[i].Phase = d.U8()
			events[i].ID = d.U64()
			events[i].Name = d.Str()
			na := d.U8()
			if d.Err() != nil {
				break
			}
			if int(na) > len(events[i].Args) {
				return nil, 0, fmt.Errorf("timewarp: trace event %d claims %d args (max %d)", i, na, len(events[i].Args))
			}
			for j := byte(0); j < na; j++ {
				key := d.Str()
				bits := d.U64()
				if d.Err() != nil {
					break
				}
				events[i].Args[j] = obs.Arg{Key: key, Val: math.Float64frombits(bits)}
			}
		}
	}
	if err := decodeEnd(d, "trace batch"); err != nil {
		return nil, 0, err
	}
	return events, dropped, nil
}
