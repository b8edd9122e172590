package timewarp

import (
	"fmt"

	"repro/internal/comm/nettrans"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Control-plane payloads of the distributed runtime. The frame types are
// nettrans constants; these are their bodies. Everything here flows over
// the coordinator connection (Report/Result/Error from a worker,
// Finish/Abort to it) or the worker mesh (Progress, a cluster's watermark);
// the data plane's event payloads live in wire.go.

// decodeEnd is the last step of every control-payload decode: the
// decoder's first error, or the bytes left over. A payload in another
// build's layout can decode field by field and only its length tells
// (TestDistSpecRoundTrip builds one).
func decodeEnd(d *nettrans.Dec, what string) error {
	if err := d.Err(); err != nil {
		return fmt.Errorf("timewarp: malformed %s: %w", what, err)
	}
	if d.Len() != 0 {
		return fmt.Errorf("timewarp: %s has %d trailing bytes", what, d.Len())
	}
	return nil
}

// distReport is a worker's heartbeat: its share of the run's progress and
// the new tail of its trace ring. Clusters lists only the clusters this
// worker owns, each with its published cycle and its Stats — the
// coordinator's only source of per-cluster kernel metrics. Trace is empty
// when the worker is uninstrumented; Lost counts the events its ring
// overwrote before they were shipped.
type distReport struct {
	Clusters []clusterReport
	Trace    []obs.Event
	Lost     uint64
}

// clusterReport is one cluster's entry of a report or a result.
type clusterReport struct {
	Cluster int32
	Cycle   uint64
	Stats   Stats
}

func appendClusters(dst []byte, cs []clusterReport) []byte {
	dst = nettrans.AppendU32(dst, uint32(len(cs)))
	for _, c := range cs {
		dst = nettrans.AppendU32(dst, uint32(c.Cluster))
		dst = nettrans.AppendU64(dst, c.Cycle)
		dst = appendStats(dst, c.Stats)
	}
	return dst
}

func decodeClusters(d *nettrans.Dec, k int) ([]clusterReport, error) {
	n := d.U32() // 0 after an error
	if int(n) > k {
		return nil, fmt.Errorf("timewarp: %d cluster entries for k=%d", n, k)
	}
	cs := make([]clusterReport, n)
	for i := range cs {
		cs[i].Cluster = int32(d.U32())
		cs[i].Cycle = d.U64()
		cs[i].Stats = decodeStats(d)
		if d.Err() == nil && (cs[i].Cluster < 0 || int(cs[i].Cluster) >= k) {
			return nil, fmt.Errorf("timewarp: entry for cluster %d of %d", cs[i].Cluster, k)
		}
	}
	return cs, d.Err()
}

// appendMark encodes the payload of a watermark frame: cluster src has
// sent the receiving worker everything it will send for the cycles below
// through.
func appendMark(dst []byte, src int32, through uint64) []byte {
	dst = nettrans.AppendU32(dst, uint32(src))
	return nettrans.AppendU64(dst, through)
}

func decodeMark(p []byte, k int) (src int32, through uint64, err error) {
	d := nettrans.NewDec(p)
	src = int32(d.U32())
	through = d.U64()
	if err := decodeEnd(d, "watermark"); err != nil {
		return 0, 0, err
	}
	if src < 0 || int(src) >= k {
		return 0, 0, fmt.Errorf("timewarp: watermark of cluster %d of %d", src, k)
	}
	return src, through, nil
}

func appendReport(dst []byte, r distReport) []byte {
	dst = appendClusters(dst, r.Clusters)
	return AppendTraceEvents(dst, r.Trace, r.Lost)
}

// decodeReport reads the clusters' entries and hands the rest of the
// payload, the trace batch, to its own decoder, which ends the payload.
func decodeReport(p []byte, k int) (distReport, error) {
	d := nettrans.NewDec(p)
	var r distReport
	var err error
	if r.Clusters, err = decodeClusters(d, k); err != nil {
		return distReport{}, fmt.Errorf("timewarp: malformed report: %w", err)
	}
	if r.Trace, r.Lost, err = DecodeTraceEvents(p[len(p)-d.Len():]); err != nil {
		return distReport{}, fmt.Errorf("timewarp: report: %w", err)
	}
	return r, nil
}

// distAbort carries the coordinator's abort diagnosis (or a worker's
// FrameError message — same shape).
type distAbort struct {
	Reason string
}

func appendAbort(dst []byte, a distAbort) []byte {
	return nettrans.AppendStr(dst, a.Reason)
}

func decodeAbort(p []byte) (distAbort, error) {
	d := nettrans.NewDec(p)
	a := distAbort{Reason: d.Str()}
	if err := decodeEnd(d, "abort"); err != nil {
		return distAbort{}, err
	}
	return a, nil
}

// distResult is a worker's final contribution: its clusters' statistics,
// the waveforms of the observed nets it owns (bit-packed), and the final
// counter values the coordinator folds into the end-of-run invariant
// checks (mergeResults). Absorbed is the frames its clusters filed;
// WireSent and WireRecv are the data frames its mesh wrote and read (zero
// in-process).
type distResult struct {
	Absorbed uint64
	WireSent uint64
	WireRecv uint64
	Clusters []clusterReport
	Observed []observedNet
}

type observedNet struct {
	Net    netlist.NetID
	Values []bool
}

func appendStats(dst []byte, s Stats) []byte {
	for _, f := range s.fields() {
		dst = nettrans.AppendU64(dst, *f)
	}
	return dst
}

func decodeStats(d *nettrans.Dec) Stats {
	var s Stats
	for _, f := range s.fields() {
		*f = d.U64()
	}
	return s
}

func appendResult(dst []byte, r distResult) []byte {
	dst = nettrans.AppendU64(dst, r.Absorbed)
	dst = nettrans.AppendU64(dst, r.WireSent)
	dst = nettrans.AppendU64(dst, r.WireRecv)
	dst = appendClusters(dst, r.Clusters)
	dst = nettrans.AppendU32(dst, uint32(len(r.Observed)))
	for _, o := range r.Observed {
		dst = nettrans.AppendU32(dst, uint32(o.Net))
		dst = nettrans.AppendU64(dst, uint64(len(o.Values)))
		packed := make([]byte, (len(o.Values)+7)/8)
		for i, v := range o.Values {
			if v {
				packed[i/8] |= 1 << (i % 8)
			}
		}
		dst = nettrans.AppendBytes(dst, packed)
	}
	return dst
}

func decodeResult(p []byte, k int) (distResult, error) {
	d := nettrans.NewDec(p)
	var r distResult
	r.Absorbed = d.U64()
	r.WireSent = d.U64()
	r.WireRecv = d.U64()
	var err error
	if r.Clusters, err = decodeClusters(d, k); err != nil {
		return distResult{}, fmt.Errorf("timewarp: malformed result: %w", err)
	}
	no := d.U32()
	if d.Err() == nil {
		const maxObserved = 1 << 24
		if no > maxObserved {
			return distResult{}, fmt.Errorf("timewarp: result claims %d observed nets", no)
		}
		r.Observed = make([]observedNet, no)
		for i := range r.Observed {
			o := &r.Observed[i]
			o.Net = netlist.NetID(int32(d.U32()))
			cycles := d.U64()
			packed := d.Bytes()
			if d.Err() != nil {
				break
			}
			if cycles > uint64(len(packed))*8 {
				return distResult{}, fmt.Errorf("timewarp: observed net %d: %d cycles in %d packed bytes", o.Net, cycles, len(packed))
			}
			o.Values = make([]bool, cycles)
			for c := range o.Values {
				o.Values[c] = packed[c/8]&(1<<(c%8)) != 0
			}
		}
	}
	if err := decodeEnd(d, "result"); err != nil {
		return distResult{}, err
	}
	return r, nil
}
