package timewarp

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/comm/nettrans"
)

// Wire encoding of a worker mesh data frame: one link frame and the
// cluster it is for. The layout is fixed-width so decode cost is a bounds
// check per field and the framing fuzz tests can reason about exact sizes:
//
//	data frame = dst(4) T(8) src(4) word(8)…
//
// the word count implied by the length. The words' meaning (which
// flip-flop each bit is) is the link's, derived by both ends from the
// netlist and the partition, so no net id crosses the wire. Encoding and
// decoding are exact inverses, and the decoder rejects truncated, ragged
// and garbage input with an error — never a panic, never a partial frame.
// That the destination is local and reads the source the worker checks
// (peerFrame); that the length matches the link and the padding bits are
// clear, the receiver does (apply).
const wireFrameHeader = 4 + 8 + 4

// appendFrame serializes f, bound for cluster dst, onto buf.
func appendFrame(buf []byte, dst int, f *comm.Frame) []byte {
	buf = nettrans.AppendU32(buf, uint32(dst))
	buf = nettrans.AppendU64(buf, f.T)
	buf = nettrans.AppendU32(buf, uint32(f.Src))
	for _, w := range f.Words {
		buf = nettrans.AppendU64(buf, w)
	}
	return buf
}

// decodeFrame parses one data frame of a k-cluster network, validating
// both cluster ids against k so a corrupt frame cannot index out of range
// downstream. p is only read during the call; nothing returned aliases it.
func decodeFrame(p []byte, k int) (dst int, f *comm.Frame, err error) {
	if len(p) < wireFrameHeader || (len(p)-wireFrameHeader)%8 != 0 {
		return 0, nil, fmt.Errorf("timewarp: data frame of %d bytes, not a %d-byte header and whole words", len(p), wireFrameHeader)
	}
	d := nettrans.NewDec(p)
	dst = int(d.U32())
	f = &comm.Frame{T: d.U64(), Src: int32(d.U32())}
	if f.Src < 0 || int(f.Src) >= k || dst < 0 || dst >= k {
		return 0, nil, fmt.Errorf("timewarp: data frame routes %d→%d outside %d-cluster network", f.Src, dst, k)
	}
	f.Words = make([]uint64, d.Len()/8)
	for i := range f.Words {
		f.Words[i] = d.U64()
	}
	return dst, f, nil
}
