package timewarp

import (
	"fmt"

	"repro/internal/comm/nettrans"
	"repro/internal/netlist"
)

// Control-plane payloads of the distributed runtime. The frame types are
// nettrans constants; these are their bodies. Everything here flows over
// the coordinator connection (Cut/Report/GVT/Finish/Result/Abort/Error)
// or the worker mesh (Progress); the data plane's event payloads live in
// wire.go.

// decodeU64 reads the one-number payload of a cut or a GVT frame. A cut
// opens GVT round N: every worker flips its send color to N (the Mattern
// cut) and replies with a distReport. A GVT frame broadcasts a newly
// established safe GVT so workers fossil-collect without shared memory.
func decodeU64(p []byte, what string) (uint64, error) {
	d := nettrans.NewDec(p)
	v := d.U64()
	if err := d.Err(); err != nil {
		return 0, fmt.Errorf("timewarp: malformed %s: %w", what, err)
	}
	return v, nil
}

// eraCount is one (era, frames) tally — the white/black message counting
// of Mattern's algorithm, reported as deltas since the previous report so
// the payload stays bounded regardless of run length.
type eraCount struct {
	Era   uint64
	Count uint64
}

// distReport is a worker's answer to a cut: a consistent-enough snapshot
// of its local counters. Progress lists only the clusters this worker
// owns; Sent/Absorbed are the worker-local cumulative message counters
// whose global sums the coordinator's freeze rule compares; WireSent and
// WireRecv are per-era data-frame deltas — the piggybacked color counts
// that prove the wire drained of pre-cut frames.
type distReport struct {
	Round        uint64
	Progress     []clusterProgress
	Sent         uint64
	Absorbed     uint64
	MaxStraggler uint64
	WireSent     []eraCount
	WireRecv     []eraCount
}

type clusterProgress struct {
	Cluster int32
	Cycle   uint64
}

func appendProgressList(dst []byte, ps []clusterProgress) []byte {
	dst = nettrans.AppendU32(dst, uint32(len(ps)))
	for _, p := range ps {
		dst = nettrans.AppendU32(dst, uint32(p.Cluster))
		dst = nettrans.AppendU64(dst, p.Cycle)
	}
	return dst
}

func decodeProgressList(d *nettrans.Dec, k int) ([]clusterProgress, error) {
	n := d.U32()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if int(n) > k {
		return nil, fmt.Errorf("timewarp: progress list of %d entries for k=%d", n, k)
	}
	ps := make([]clusterProgress, n)
	for i := range ps {
		ps[i].Cluster = int32(d.U32())
		ps[i].Cycle = d.U64()
		if d.Err() == nil && (ps[i].Cluster < 0 || int(ps[i].Cluster) >= k) {
			return nil, fmt.Errorf("timewarp: progress for cluster %d of %d", ps[i].Cluster, k)
		}
	}
	return ps, d.Err()
}

func appendEraCounts(dst []byte, es []eraCount) []byte {
	dst = nettrans.AppendU32(dst, uint32(len(es)))
	for _, e := range es {
		dst = nettrans.AppendU64(dst, e.Era)
		dst = nettrans.AppendU64(dst, e.Count)
	}
	return dst
}

func decodeEraCounts(d *nettrans.Dec) ([]eraCount, error) {
	n := d.U32()
	if d.Err() != nil {
		return nil, d.Err()
	}
	// 16 bytes per entry must fit in what remains of the payload, checked
	// before the count-sized allocation.
	if uint64(n)*16 > uint64(d.Len()) {
		return nil, fmt.Errorf("timewarp: era-count list of %d entries in %d bytes", n, d.Len())
	}
	es := make([]eraCount, n)
	for i := range es {
		es[i].Era = d.U64()
		es[i].Count = d.U64()
	}
	return es, d.Err()
}

func appendReport(dst []byte, r distReport) []byte {
	dst = nettrans.AppendU64(dst, r.Round)
	dst = appendProgressList(dst, r.Progress)
	dst = nettrans.AppendU64(dst, r.Sent)
	dst = nettrans.AppendU64(dst, r.Absorbed)
	dst = nettrans.AppendU64(dst, r.MaxStraggler)
	dst = appendEraCounts(dst, r.WireSent)
	dst = appendEraCounts(dst, r.WireRecv)
	return dst
}

func decodeReport(p []byte, k int) (distReport, error) {
	d := nettrans.NewDec(p)
	var r distReport
	var err error
	r.Round = d.U64()
	if r.Progress, err = decodeProgressList(d, k); err != nil {
		return distReport{}, fmt.Errorf("timewarp: malformed report: %w", err)
	}
	r.Sent = d.U64()
	r.Absorbed = d.U64()
	r.MaxStraggler = d.U64()
	if r.WireSent, err = decodeEraCounts(d); err != nil {
		return distReport{}, fmt.Errorf("timewarp: malformed report: %w", err)
	}
	if r.WireRecv, err = decodeEraCounts(d); err != nil {
		return distReport{}, fmt.Errorf("timewarp: malformed report: %w", err)
	}
	if err := d.Err(); err != nil {
		return distReport{}, fmt.Errorf("timewarp: malformed report: %w", err)
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
	if err := d.Err(); err != nil {
		return distAbort{}, fmt.Errorf("timewarp: malformed abort: %w", err)
	}
	return a, nil
}

// distResult is a worker's final contribution: its clusters' statistics,
// the waveforms of the observed nets it owns (bit-packed), and the final
// counter values the coordinator folds into the global termination
// invariant checks.
type distResult struct {
	Sent     uint64
	Absorbed uint64
	InFlight int64
	Clusters []clusterResult
	Observed []observedNet
}

type clusterResult struct {
	Cluster int32
	Stats   Stats
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
	dst = nettrans.AppendU64(dst, r.Sent)
	dst = nettrans.AppendU64(dst, r.Absorbed)
	dst = nettrans.AppendI64(dst, r.InFlight)
	dst = nettrans.AppendU32(dst, uint32(len(r.Clusters)))
	for _, c := range r.Clusters {
		dst = nettrans.AppendU32(dst, uint32(c.Cluster))
		dst = appendStats(dst, c.Stats)
	}
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
	r.Sent = d.U64()
	r.Absorbed = d.U64()
	r.InFlight = d.I64()
	nc := d.U32()
	if d.Err() == nil && int(nc) > k {
		return distResult{}, fmt.Errorf("timewarp: result claims %d clusters for k=%d", nc, k)
	}
	if d.Err() == nil {
		r.Clusters = make([]clusterResult, nc)
		for i := range r.Clusters {
			r.Clusters[i].Cluster = int32(d.U32())
			r.Clusters[i].Stats = decodeStats(d)
			if d.Err() == nil && (r.Clusters[i].Cluster < 0 || int(r.Clusters[i].Cluster) >= k) {
				return distResult{}, fmt.Errorf("timewarp: result for cluster %d of %d", r.Clusters[i].Cluster, k)
			}
		}
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
	if err := d.Err(); err != nil {
		return distResult{}, fmt.Errorf("timewarp: malformed result: %w", err)
	}
	return r, nil
}
