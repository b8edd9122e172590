package timewarp

import (
	"fmt"
	"hash/fnv"

	"repro/internal/comm/nettrans"
	"repro/internal/elab"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// DistSpec is the complete, self-contained description of a distributed
// run — everything a worker process needs to reconstruct its share of the
// simulation from bytes alone. The coordinator ships it as the opaque
// Config blob of the nettrans Welcome; workers re-elaborate the same
// Verilog source with the same deterministic code path, so coordinator
// and workers agree on every NetID and GateID without ever serializing
// the netlist itself. The Fingerprint pins that agreement: a worker whose
// elaboration disagrees (version skew, corrupted source) aborts at
// handshake time instead of desynchronizing mid-run.
type DistSpec struct {
	// Source is the Verilog source text and Top the module to elaborate —
	// the same inputs cmd/vsim takes.
	Source string
	Top    string
	// GateParts maps every gate to its cluster, exactly as Config.GateParts.
	// Shipped explicitly because partitioning is seeded-random; only the
	// coordinator runs the partitioner.
	GateParts []int32
	K         int
	Cycles    uint64
	Window    uint64
	// VecSeed seeds sim.RandomVectors; stimulus is derived, not shipped.
	VecSeed int64
	// Observe lists the nets whose committed per-cycle values the run
	// records, exactly as Config.Observe; nil or empty means the primary
	// outputs.
	Observe []netlist.NetID
}

// Fingerprint digests the parts of the spec every participant must agree
// on byte-for-byte. It is cheap (FNV-1a over source, top, partition and
// observe list) and is carried inside the encoded spec; DecodeDistSpec recomputes and
// compares, so a truncated or skewed blob fails closed.
func (s *DistSpec) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte(s.Source))
	h.Write([]byte{0})
	h.Write([]byte(s.Top))
	h.Write([]byte{0})
	var b [4]byte
	word := func(v int32) {
		b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
		h.Write(b[:])
	}
	for _, p := range s.GateParts {
		word(p)
	}
	// The count separates the two lists: a gate moved into the observe
	// list changes the digest.
	word(int32(len(s.Observe)))
	for _, n := range s.Observe {
		word(int32(n))
	}
	return h.Sum64()
}

// Elaborate parses and elaborates the spec's source, validating the gate
// partition against the resulting netlist.
func (s *DistSpec) Elaborate() (*elab.Design, error) {
	d, err := verilog.Parse(s.Source)
	if err != nil {
		return nil, fmt.Errorf("timewarp: dist spec source does not parse: %w", err)
	}
	ed, err := elab.Elaborate(d, s.Top)
	if err != nil {
		return nil, fmt.Errorf("timewarp: dist spec does not elaborate: %w", err)
	}
	if len(s.GateParts) != len(ed.Netlist.Gates) {
		return nil, fmt.Errorf("timewarp: dist spec partition covers %d gates, elaboration produced %d — coordinator/worker elaboration disagree",
			len(s.GateParts), len(ed.Netlist.Gates))
	}
	return ed, nil
}

// config is the kernel configuration the spec describes over nl, its own
// elaboration — the one DistSpec → Config mapping.
func (s *DistSpec) config(nl *netlist.Netlist) Config {
	return Config{
		NL:        nl,
		GateParts: s.GateParts,
		K:         s.K,
		Vectors:   sim.RandomVectors{Seed: s.VecSeed},
		Cycles:    s.Cycles,
		Window:    s.Window,
		Observe:   s.Observe,
	}
}

// AppendDistSpec serializes the spec, fingerprint included.
func AppendDistSpec(dst []byte, s *DistSpec) []byte {
	dst = nettrans.AppendU64(dst, s.Fingerprint())
	dst = nettrans.AppendStr(dst, s.Source)
	dst = nettrans.AppendStr(dst, s.Top)
	dst = nettrans.AppendU32(dst, uint32(len(s.GateParts)))
	for _, p := range s.GateParts {
		dst = nettrans.AppendU32(dst, uint32(p))
	}
	dst = nettrans.AppendU32(dst, uint32(s.K))
	dst = nettrans.AppendU64(dst, s.Cycles)
	dst = nettrans.AppendU64(dst, s.Window)
	dst = nettrans.AppendI64(dst, s.VecSeed)
	dst = nettrans.AppendU32(dst, uint32(len(s.Observe)))
	for _, n := range s.Observe {
		dst = nettrans.AppendU32(dst, uint32(n))
	}
	return dst
}

// DecodeDistSpec parses and validates a spec blob, verifying the
// embedded fingerprint against a recomputation.
func DecodeDistSpec(p []byte) (*DistSpec, error) {
	d := nettrans.NewDec(p)
	want := d.U64()
	s := &DistSpec{
		Source: d.Str(),
		Top:    d.Str(),
	}
	n := d.U32()
	if d.Err() == nil {
		if uint64(n)*4 > uint64(len(p)) {
			return nil, fmt.Errorf("timewarp: dist spec claims %d gates in a %d-byte blob", n, len(p))
		}
		s.GateParts = make([]int32, n)
		for i := range s.GateParts {
			s.GateParts[i] = int32(d.U32())
		}
	}
	s.K = int(int32(d.U32()))
	s.Cycles = d.U64()
	s.Window = d.U64()
	s.VecSeed = d.I64()
	if n := d.U32(); d.Err() == nil && n > 0 {
		if uint64(n)*4 > uint64(d.Len()) {
			return nil, fmt.Errorf("timewarp: dist spec claims %d observed nets in %d bytes", n, d.Len())
		}
		s.Observe = make([]netlist.NetID, n)
		for i := range s.Observe {
			s.Observe[i] = netlist.NetID(int32(d.U32()))
		}
	}
	if err := decodeEnd(d, "dist spec"); err != nil {
		return nil, err
	}
	if err := checkPartition(s.K, s.GateParts); err != nil {
		return nil, fmt.Errorf("%w (dist spec)", err)
	}
	if got := s.Fingerprint(); got != want {
		return nil, fmt.Errorf("timewarp: dist spec fingerprint mismatch: blob says %016x, content hashes to %016x", want, got)
	}
	return s, nil
}
