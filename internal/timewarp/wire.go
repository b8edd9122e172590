package timewarp

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/comm/nettrans"
)

// Wire encoding of the kernel's one comm.Message payload, a frame — the
// only shape the worker mesh's data frames carry. The layout is
// fixed-width so decode cost is a bounds check per field and the framing
// fuzz tests can reason about exact sizes:
//
//	frame = T(8) Src(4) count(4) count × word(8)
//
// The words' meaning (which flip-flop each bit is) is the link's, derived
// by both ends from the netlist and the partition, so no net id crosses the
// wire. Encoding and decoding are exact inverses, and the decoder rejects
// truncated, oversized and garbage input with an error — never a panic,
// never a partial frame. The count must match the payload's length exactly,
// so it is bounded by it before anything is allocated; that it matches the
// link, and that the padding bits are clear, the receiver checks
// (absorbFrame).
const wireFrameHeader = 8 + 4 + 4

// appendMessage serializes one kernel message, a *frame, onto dst.
func appendMessage(dst []byte, msg comm.Message) ([]byte, error) {
	f, ok := msg.(*frame)
	if !ok {
		return dst, fmt.Errorf("timewarp: cannot wire-encode message payload %T", msg)
	}
	dst = nettrans.AppendU64(dst, f.T)
	dst = nettrans.AppendU32(dst, uint32(f.Src))
	dst = nettrans.AppendU32(dst, uint32(len(f.Words)))
	for _, w := range f.Words {
		dst = nettrans.AppendU64(dst, w)
	}
	return dst, nil
}

// decodeMessage parses one frame, validating the length exactly: a frame
// with trailing bytes is as corrupt as a truncated one. p is only read
// during the call; nothing returned aliases it.
func decodeMessage(p []byte) (*frame, error) {
	if len(p) < wireFrameHeader {
		return nil, fmt.Errorf("timewarp: frame of %d bytes, shorter than its %d-byte header", len(p), wireFrameHeader)
	}
	d := nettrans.NewDec(p)
	f := &frame{T: d.U64(), Src: int32(d.U32())}
	n := d.U32()
	if want := wireFrameHeader + 8*uint64(n); uint64(len(p)) != want {
		return nil, fmt.Errorf("timewarp: frame of %d words needs %d bytes, got %d", n, want, len(p))
	}
	f.Words = make([]uint64, n)
	for i := range f.Words {
		f.Words[i] = d.U64()
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return f, nil
}
