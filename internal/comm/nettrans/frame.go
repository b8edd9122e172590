// Package nettrans is the wire layer under the distributed Time Warp
// kernel — the role MPICH's socket devices played under DVS. It frames
// the comm layer's link frames into length-prefixed binary records over
// stdlib net.Conn TCP streams, preserving per-link
// FIFO across the wire (one stream per worker pair; TCP byte order is
// delivery order), and carries the control plane of the distributed
// runtime: the hello that opens a worker's coordinator connection and
// the welcome that answers it, the workers' heartbeat reports, the
// clusters' watermarks, abort and result collection.
//
// A Conn is received from in one of two ways (conn.go). Recv blocks in the
// runtime's netpoller until a frame arrives: the control plane and the
// handshakes, where a goroutine has nothing else to do. TryRecv reads the
// descriptor without waiting and is called from the loop of whoever
// consumes the frames: the worker mesh's data plane, which no goroutine
// reads in the background (DESIGN §21).
// Both yield the same frames and the same errors on the same bytes.
//
// The package is deliberately ignorant of payloads: a data frame carries
// the bytes the kernel encoded (internal/timewarp/wire.go) and hands them
// back undecoded. Everything here is hostile-input hardened — a
// truncated, oversized or garbage frame is an error, never a panic and
// never a partially delivered payload.
package nettrans

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Frame types. A frame is [4-byte big-endian payload length][1-byte
// type][payload]; the length covers the type byte plus payload, so an
// empty frame has length 1.
const (
	// FrameHello opens a coordinator connection: magic, protocol
	// version, and the worker's data-plane listen address.
	FrameHello byte = 0x01
	// FrameWelcome answers a hello with the whole run: the worker's id,
	// the cluster placement, the peer addresses and the run spec (the
	// kernel's welcome codec). A worker starts its clusters once its mesh
	// and host are up; nothing else releases it.
	FrameWelcome byte = 0x02
	// FramePeerHello identifies the dialing worker on a freshly
	// accepted data-plane connection.
	FramePeerHello byte = 0x03
	// FrameData carries one comm.Frame between clusters, in the kernel's
	// encoding: its destination cluster, then the frame.
	FrameData byte = 0x06
	// FrameProgress carries one cluster's watermark to a peer worker,
	// behind the data frames the cluster sent it before.
	FrameProgress byte = 0x07
	// FrameReport is a worker's heartbeat: per cluster, its progress and
	// kernel statistics, and the new tail of the worker's trace ring.
	FrameReport byte = 0x09
	// FrameFinish tells workers that every result is in: they may close
	// their mesh and exit.
	FrameFinish byte = 0x0B
	// FrameResult carries a worker's committed waveforms and stats back
	// to the coordinator once its clusters have run their cycles.
	FrameResult byte = 0x0C
	// FrameAbort carries a fatal error: from the coordinator, the run's
	// diagnosis, and everyone tears down; from a worker, its own failure,
	// which the coordinator turns into the run's abort.
	FrameAbort byte = 0x0D
)

// MaxFrame caps a frame payload. Large enough for a full-mirror result
// frame of a big circuit, small enough that a corrupted length prefix
// cannot drive an allocation-of-doom.
const MaxFrame = 64 << 20

// ErrFrameTooLarge reports a length prefix beyond MaxFrame — a corrupted
// stream or a hostile peer, not a real frame.
var ErrFrameTooLarge = errors.New("nettrans: frame length exceeds limit")

// ErrFrameEmpty reports a zero-length frame, which cannot even carry the
// mandatory type byte.
var ErrFrameEmpty = errors.New("nettrans: zero-length frame")

// WriteFrame writes one frame. The payload is borrowed for the duration
// of the call only.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload)+1)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// frameLen validates a length prefix: the one place that decides what a
// legal frame length is, shared by ReadFrame and Conn.TryRecv's
// incremental parser.
func frameLen(hdr []byte) (uint32, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 {
		return 0, ErrFrameEmpty
	}
	if n > MaxFrame {
		return 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	return n, nil
}

// The two ways a stream can end inside a frame. Both wrap
// io.ErrUnexpectedEOF: truncation is never silent.
func errTruncatedHeader() error {
	return fmt.Errorf("nettrans: truncated frame header: %w", io.ErrUnexpectedEOF)
}

func errTruncatedBody(got int, want uint32) error {
	return fmt.Errorf("nettrans: truncated frame body (%d of %d bytes): %w",
		got, want, io.ErrUnexpectedEOF)
}

// ReadFrame reads one frame, rejecting oversized and empty lengths before
// allocating. A clean EOF at a frame boundary returns io.EOF; EOF inside
// a frame returns io.ErrUnexpectedEOF — truncation is never silent.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, errTruncatedHeader()
		}
		return 0, nil, err
	}
	n, err := frameLen(hdr[:])
	if err != nil {
		return 0, nil, err
	}
	buf := make([]byte, n)
	if m, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, errTruncatedBody(m, n)
		}
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}
