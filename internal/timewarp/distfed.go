package timewarp

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/comm/nettrans"
	"repro/internal/obs"
)

// Federation payloads of the control plane: the bodies of FrameMetrics (a
// registry snapshot) and FrameTrace (a batch of trace-ring events). They
// sit on nettrans.Dec like every other control payload in distproto.go —
// internal/obs holds no wire code, which is what keeps obs ← nettrans ←
// timewarp acyclic without a private copy of the decoder — and meet the
// same hostile-input contract: every malformed payload is an error, never
// a panic, and no count drives an allocation bigger than the payload that
// carries it. The snapshot and trace-batch codecs are exported for their
// round-trip, truncation and hostile-input tests, which stay with the obs
// types whose wire image they pin (internal/obs/fedwire_test.go, an
// external test package).

// snapshotVersion versions the snapshot wire format; decoders reject
// anything else, so a skewed peer fails loudly instead of misparsing.
const snapshotVersion byte = 1

// Sample-name suffix codes of the snapshot wire format.
const (
	suffixNone byte = iota
	suffixBucket
	suffixCount
	suffixSum
)

var suffixStrings = [...]string{suffixNone: "", suffixBucket: "_bucket", suffixCount: "_count", suffixSum: "_sum"}

// maxSnapshotEntries bounds the family and sample counts a decoded
// snapshot may claim, over and above the per-entry size check — no
// plausible registry has a million series, so anything bigger is garbage.
const maxSnapshotEntries = 1 << 20

// AppendSnapshot serializes a snapshot (families and samples) into the
// compact binary form shipped over FrameMetrics.
func AppendSnapshot(dst []byte, s obs.Snapshot) []byte {
	famIdx := make(map[string]int, len(s.Families))
	dst = nettrans.AppendU8(dst, snapshotVersion)
	dst = nettrans.AppendU64(dst, uint64(s.At/time.Microsecond))
	dst = nettrans.AppendU32(dst, uint32(len(s.Families)))
	for i, f := range s.Families {
		famIdx[f.Name] = i
		dst = nettrans.AppendStr(dst, f.Name)
		dst = nettrans.AppendStr(dst, f.Help)
		dst = nettrans.AppendU8(dst, byte(f.Kind))
	}
	dst = nettrans.AppendU32(dst, uint32(len(s.Samples)))
	for _, sm := range s.Samples {
		idx, suffix := resolveFamily(sm.Name, famIdx)
		dst = nettrans.AppendU32(dst, uint32(idx))
		dst = nettrans.AppendU8(dst, suffix)
		dst = nettrans.AppendStr(dst, sm.Labels)
		dst = nettrans.AppendU64(dst, math.Float64bits(sm.Value))
	}
	return dst
}

// resolveFamily maps a (possibly suffixed) sample name to its family
// index. Samples without a known family are impossible for snapshots the
// registry built (Snapshot always emits a family per metric), but a
// hand-built snapshot gets index 0 rather than a panic.
func resolveFamily(name string, famIdx map[string]int) (int, byte) {
	if i, ok := famIdx[name]; ok {
		return i, suffixNone
	}
	for code, suffix := range suffixStrings {
		if suffix == "" {
			continue
		}
		if base, found := strings.CutSuffix(name, suffix); found {
			if i, ok := famIdx[base]; ok {
				return i, byte(code)
			}
		}
	}
	return 0, suffixNone
}

// DecodeSnapshot parses a snapshot produced by AppendSnapshot,
// validating every count against the remaining payload before
// allocating.
func DecodeSnapshot(p []byte) (obs.Snapshot, error) {
	d := nettrans.NewDec(p)
	var s obs.Snapshot
	if v := d.U8(); d.Err() == nil && v != snapshotVersion {
		return obs.Snapshot{}, fmt.Errorf("timewarp: snapshot version %d, this build speaks %d", v, snapshotVersion)
	}
	s.At = time.Duration(d.U64()) * time.Microsecond
	nf := d.U32()
	if d.Err() == nil {
		// A family needs at least 9 bytes (two length prefixes + kind).
		if nf > maxSnapshotEntries || uint64(nf)*9 > uint64(d.Len()) {
			return obs.Snapshot{}, fmt.Errorf("timewarp: snapshot claims %d families in %d bytes", nf, d.Len())
		}
		s.Families = make([]obs.Family, nf)
		for i := range s.Families {
			s.Families[i].Name = d.Str()
			s.Families[i].Help = d.Str()
			k := d.U8()
			if d.Err() == nil && k > byte(obs.KindHistogram) {
				return obs.Snapshot{}, fmt.Errorf("timewarp: snapshot family %d has kind %d", i, k)
			}
			s.Families[i].Kind = obs.Kind(k)
		}
	}
	ns := d.U32()
	if d.Err() == nil {
		// A sample needs at least 17 bytes (index, suffix, labels prefix, value).
		if ns > maxSnapshotEntries || uint64(ns)*17 > uint64(d.Len()) {
			return obs.Snapshot{}, fmt.Errorf("timewarp: snapshot claims %d samples in %d bytes", ns, d.Len())
		}
		s.Samples = make([]obs.Sample, ns)
		for i := range s.Samples {
			idx := d.U32()
			suffix := d.U8()
			labels := d.Str()
			bits := d.U64()
			if d.Err() != nil {
				break
			}
			if int(idx) >= len(s.Families) {
				return obs.Snapshot{}, fmt.Errorf("timewarp: snapshot sample %d names family %d of %d", i, idx, len(s.Families))
			}
			if suffix > suffixSum {
				return obs.Snapshot{}, fmt.Errorf("timewarp: snapshot sample %d has suffix code %d", i, suffix)
			}
			s.Samples[i] = obs.Sample{
				Name:   s.Families[idx].Name + suffixStrings[suffix],
				Labels: labels,
				Value:  math.Float64frombits(bits),
			}
		}
	}
	if err := d.Err(); err != nil {
		return obs.Snapshot{}, fmt.Errorf("timewarp: malformed snapshot: %w", err)
	}
	if d.Len() != 0 {
		return obs.Snapshot{}, fmt.Errorf("timewarp: snapshot has %d trailing bytes", d.Len())
	}
	return s, nil
}

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

// DecodeTraceEvents parses a batch produced by AppendTraceEvents, with
// the same hostile-input posture as the snapshot codec: counts are
// validated against the remaining payload before any allocation.
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
	if err := d.Err(); err != nil {
		return nil, 0, fmt.Errorf("timewarp: malformed trace batch: %w", err)
	}
	if d.Len() != 0 {
		return nil, 0, fmt.Errorf("timewarp: trace batch has %d trailing bytes", d.Len())
	}
	return events, dropped, nil
}
