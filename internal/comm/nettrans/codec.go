package nettrans

import (
	"fmt"
)

// Data-frame payload layout: [src u32][dst u32][message bytes]. The
// message bytes are the kernel's own encoding (internal/timewarp/wire.go).
const dataHdrLen = 4 + 4

// AppendDataFrame builds a FrameData payload.
func AppendDataFrame(dst []byte, src, dstCluster int, msgBytes []byte) []byte {
	dst = AppendU32(dst, uint32(src))
	dst = AppendU32(dst, uint32(dstCluster))
	return append(dst, msgBytes...)
}

// DataFrame is one decoded FrameData payload. Msg aliases the frame
// buffer and must be consumed (decoded) before the next read on the same
// Conn.
type DataFrame struct {
	Src, Dst int
	Msg      []byte
}

// DecodeDataFrame splits a FrameData payload, validating cluster ids
// against k (the network size) so a corrupt frame cannot index out of
// range downstream.
func DecodeDataFrame(p []byte, k int) (DataFrame, error) {
	if len(p) < dataHdrLen {
		return DataFrame{}, fmt.Errorf("nettrans: data frame %d bytes, need at least %d: %w",
			len(p), dataHdrLen, ErrShortPayload)
	}
	d := NewDec(p)
	f := DataFrame{
		Src: int(d.U32()),
		Dst: int(d.U32()),
	}
	f.Msg = d.Rest()
	if err := d.Err(); err != nil {
		return DataFrame{}, err
	}
	if f.Src < 0 || f.Src >= k || f.Dst < 0 || f.Dst >= k {
		return DataFrame{}, fmt.Errorf("nettrans: data frame routes %d→%d outside %d-cluster network",
			f.Src, f.Dst, k)
	}
	return f, nil
}
