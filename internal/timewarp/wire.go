package timewarp

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/comm/nettrans"
	"repro/internal/netlist"
)

// Wire encoding of the kernel's comm.Message payloads — the only two
// shapes the worker mesh ever carries: a bare event, or a cycle batch of
// events bound for one destination. The layout is fixed-width so decode
// cost is a bounds check per field and the framing fuzz tests can reason
// about exact sizes:
//
//	message  = kind(1) rest
//	kind 0   = one event record
//	kind 1   = count(4) count × event records
//	event    = T(8) Net(4) flags(1) Src(4) Seq(8)
//	flags    = bit0 Val
//
// Encoding and decoding are exact inverses, and the decoder rejects
// truncated, oversized and garbage input with an error — never a panic,
// never a partial batch.
const (
	wireKindEvent byte = 0
	wireKindBatch byte = 1

	wireEventLen = 8 + 4 + 1 + 4 + 8
)

func appendEvent(dst []byte, e event) []byte {
	dst = nettrans.AppendU64(dst, e.T)
	dst = nettrans.AppendU32(dst, uint32(e.Net))
	var flags byte
	if e.Val {
		flags = 1
	}
	dst = nettrans.AppendU8(dst, flags)
	dst = nettrans.AppendU32(dst, uint32(e.Src))
	dst = nettrans.AppendU64(dst, e.Seq)
	return dst
}

func decodeEvent(d *nettrans.Dec) (event, error) {
	var e event
	e.T = d.U64()
	e.Net = netlist.NetID(int32(d.U32()))
	flags := d.U8()
	if flags&^1 != 0 {
		return event{}, fmt.Errorf("timewarp: event flags byte 0x%02x has unknown bits set", flags)
	}
	e.Val = flags&1 != 0
	e.Src = int32(d.U32())
	e.Seq = d.U64()
	return e, nil
}

// appendMessage serializes one kernel message onto dst.
func appendMessage(dst []byte, msg comm.Message) ([]byte, error) {
	switch v := msg.(type) {
	case event:
		dst = nettrans.AppendU8(dst, wireKindEvent)
		return appendEvent(dst, v), nil
	case batch:
		dst = nettrans.AppendU8(dst, wireKindBatch)
		dst = nettrans.AppendU32(dst, uint32(len(v)))
		for _, e := range v {
			dst = appendEvent(dst, e)
		}
		return dst, nil
	default:
		return dst, fmt.Errorf("timewarp: cannot wire-encode message payload %T", msg)
	}
}

// decodeMessage parses one kernel message, validating the length exactly:
// a message with trailing bytes is as corrupt as a truncated one. p is
// only read during the call; nothing returned aliases it.
func decodeMessage(p []byte) (comm.Message, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("timewarp: empty wire message")
	}
	kind, rest := p[0], p[1:]
	switch kind {
	case wireKindEvent:
		if len(rest) != wireEventLen {
			return nil, fmt.Errorf("timewarp: event message %d bytes, want %d", len(rest), wireEventLen)
		}
		d := nettrans.NewDec(rest)
		e, err := decodeEvent(d)
		if err != nil {
			return nil, err
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
		return e, nil
	case wireKindBatch:
		d := nettrans.NewDec(rest)
		n := d.U32()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("timewarp: batch message missing count: %w", err)
		}
		if uint64(len(rest)) != 4+uint64(n)*wireEventLen {
			return nil, fmt.Errorf("timewarp: batch of %d events needs %d bytes, got %d",
				n, 4+uint64(n)*wireEventLen, len(rest))
		}
		b := make(batch, n)
		for i := range b {
			var err error
			if b[i], err = decodeEvent(d); err != nil {
				return nil, err
			}
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
		return b, nil
	default:
		return nil, fmt.Errorf("timewarp: unknown wire message kind 0x%02x", kind)
	}
}
