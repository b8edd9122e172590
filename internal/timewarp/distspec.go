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
// simulation from bytes alone. The coordinator ships it in every worker's
// welcome (distWelcome); workers re-elaborate the same
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
	// VecSeed seeds sim.RandomVectors; stimulus is derived, not shipped.
	VecSeed int64
	// Observe lists the nets whose committed per-cycle values the run
	// records, exactly as Config.Observe; nil or empty means the primary
	// outputs.
	Observe []netlist.NetID
}

// Fingerprint digests the parts of the spec every participant must agree
// on byte-for-byte. It is cheap (FNV-1a over source, top, partition and
// observe list) and opens the encoded welcome; decodeWelcome recomputes and
// compares, so a truncated or skewed welcome fails closed.
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
		Observe:   s.Observe,
	}
}

// distWelcome is the coordinator's answer to a worker's hello, and all the
// worker is told: its id, the worker that runs each cluster, each worker's
// data-plane address and the spec. The cluster count is len(Placement)
// and the worker count len(PeerAddrs); neither travels on its own, so the
// welcome cannot disagree with itself.
type distWelcome struct {
	WorkerID  int
	Placement []int32  // cluster → worker
	PeerAddrs []string // worker → data-plane address
	Spec      *DistSpec
}

// appendWelcome serializes a welcome, the spec's fingerprint first. The
// spec's K is not written: it is the placement's length.
func appendWelcome(dst []byte, w distWelcome) []byte {
	s := w.Spec
	dst = nettrans.AppendU64(dst, s.Fingerprint())
	dst = nettrans.AppendU32(dst, uint32(w.WorkerID))
	dst = nettrans.AppendU32(dst, uint32(len(w.PeerAddrs)))
	for _, a := range w.PeerAddrs {
		dst = nettrans.AppendStr(dst, a)
	}
	dst = appendWords(dst, w.Placement)
	dst = nettrans.AppendStr(dst, s.Source)
	dst = nettrans.AppendStr(dst, s.Top)
	dst = appendWords(dst, s.GateParts)
	dst = nettrans.AppendU64(dst, s.Cycles)
	dst = nettrans.AppendI64(dst, s.VecSeed)
	return appendWords(dst, s.Observe)
}

// appendWords writes a counted list of 32-bit words.
func appendWords[T ~int32](dst []byte, xs []T) []byte {
	dst = nettrans.AppendU32(dst, uint32(len(xs)))
	for _, x := range xs {
		dst = nettrans.AppendU32(dst, uint32(x))
	}
	return dst
}

// listLen reads a list's count and refuses, before anything is allocated
// for it, one whose entries of at least 4 bytes each cannot fit in what is
// left of the payload. After a decode error it reads 0.
func listLen(d *nettrans.Dec, what string) (int, error) {
	n := d.U32()
	if uint64(n)*4 > uint64(d.Len()) {
		return 0, fmt.Errorf("timewarp: welcome claims %d %s in %d bytes", n, what, d.Len())
	}
	return int(n), nil
}

// decodeWords reads a list appendWords wrote; an empty one is nil.
func decodeWords[T ~int32](d *nettrans.Dec, what string) ([]T, error) {
	n, err := listLen(d, what)
	if err != nil || n == 0 {
		return nil, err
	}
	xs := make([]T, n)
	for i := range xs {
		xs[i] = T(int32(d.U32()))
	}
	return xs, nil
}

// decodeWelcome parses and validates a welcome: every count bounded by the
// payload, the worker id and every placement naming a worker of the
// welcome's own peer list, the partition within its K clusters, and the
// embedded fingerprint equal to a recomputation.
func decodeWelcome(p []byte) (distWelcome, error) {
	d := nettrans.NewDec(p)
	want := d.U64()
	w := distWelcome{WorkerID: int(d.U32()), Spec: &DistSpec{}}
	n, err := listLen(d, "peer addresses")
	if err != nil {
		return distWelcome{}, err
	}
	w.PeerAddrs = make([]string, n)
	for i := range w.PeerAddrs {
		w.PeerAddrs[i] = d.Str()
	}
	s := w.Spec
	if w.Placement, err = decodeWords[int32](d, "placements"); err != nil {
		return distWelcome{}, err
	}
	s.Source, s.Top = d.Str(), d.Str()
	if s.GateParts, err = decodeWords[int32](d, "gates"); err != nil {
		return distWelcome{}, err
	}
	s.Cycles, s.VecSeed = d.U64(), d.I64()
	if s.Observe, err = decodeWords[netlist.NetID](d, "observed nets"); err != nil {
		return distWelcome{}, err
	}
	if err := decodeEnd(d, "welcome"); err != nil {
		return distWelcome{}, err
	}
	if w.WorkerID < 0 || w.WorkerID >= len(w.PeerAddrs) {
		return distWelcome{}, fmt.Errorf("timewarp: welcome to worker %d of %d", w.WorkerID, len(w.PeerAddrs))
	}
	for c, owner := range w.Placement {
		if owner < 0 || int(owner) >= len(w.PeerAddrs) {
			return distWelcome{}, fmt.Errorf("timewarp: welcome places cluster %d on worker %d of %d", c, owner, len(w.PeerAddrs))
		}
	}
	s.K = len(w.Placement)
	if err := checkPartition(s.K, s.GateParts); err != nil {
		return distWelcome{}, fmt.Errorf("%w (welcome)", err)
	}
	if got := s.Fingerprint(); got != want {
		return distWelcome{}, fmt.Errorf("timewarp: welcome fingerprint mismatch: sent %016x, spec hashes to %016x", want, got)
	}
	return w, nil
}
