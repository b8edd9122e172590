// Package nettrans is the wire layer under the distributed Time Warp
// kernel — the role MPICH's socket devices played under DVS. It frames
// the comm layer's slice-valued batch messages into length-prefixed
// binary records over stdlib net.Conn TCP streams, preserving per-link
// FIFO across the wire (one stream per worker pair; TCP byte order is
// delivery order), and carries the control plane of the distributed
// runtime: the connect/accept handshake with cluster placement, the
// Mattern-colored GVT cut/report rounds, progress gossip, abort and
// result collection.
//
// A Conn is received from in one of two ways (conn.go). Recv blocks in the
// runtime's netpoller until a frame arrives: the control plane, the
// handshakes and the Loopback transport's reader, where a goroutine has
// nothing else to do. TryRecv reads the descriptor without waiting and is
// called from the loop of whoever consumes the frames: the worker mesh's
// data plane, which no goroutine reads in the background (DESIGN §21).
// Both yield the same frames and the same errors on the same bytes.
//
// The package is deliberately ignorant of event payloads: senders hand it
// opaque comm.Message values and a Codec that turns them into bytes (the
// kernel's codec lives in internal/timewarp/wire.go). Everything here is
// hostile-input hardened — a truncated, oversized or garbage frame is an
// error, never a panic and never a partially delivered message.
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
	// FrameWelcome answers a hello: worker id, cluster placement, peer
	// addresses and the opaque run-config blob.
	FrameWelcome byte = 0x02
	// FramePeerHello identifies the dialing worker on a freshly
	// accepted data-plane connection.
	FramePeerHello byte = 0x03
	// FrameReady tells the coordinator the worker's data mesh is up.
	FrameReady byte = 0x04
	// FrameStart releases the workers into the run.
	FrameStart byte = 0x05
	// FrameData carries one comm.Message between clusters: src cluster,
	// dst cluster, era color, codec payload.
	FrameData byte = 0x06
	// FrameProgress gossips the published cycle of each of the sender
	// worker's clusters to a peer worker.
	FrameProgress byte = 0x07
	// FrameCut opens one GVT round: every worker flips its send color.
	FrameCut byte = 0x08
	// FrameReport answers a cut with the worker's counters and progress.
	FrameReport byte = 0x09
	// FrameGVT broadcasts a newly established safe GVT value.
	FrameGVT byte = 0x0A
	// FrameFinish tells workers the run terminated cleanly: close
	// endpoints, join clusters, send results.
	FrameFinish byte = 0x0B
	// FrameResult carries a worker's committed waveforms and stats back
	// to the coordinator.
	FrameResult byte = 0x0C
	// FrameAbort carries a fatal error; everyone tears down.
	FrameAbort byte = 0x0D
	// FrameError reports a worker-local failure to the coordinator.
	FrameError byte = 0x0E
	// FrameMetrics ships a worker's metrics-registry snapshot (the
	// compact binary form of obs.AppendSnapshot) to the coordinator,
	// piggybacked on GVT-round reports and on termination.
	FrameMetrics byte = 0x0F
	// FrameTrace streams a bounded batch of the worker's trace ring
	// (obs.AppendTraceEvents) to the coordinator for the merged cluster
	// trace and the crash flight recorder.
	FrameTrace byte = 0x10
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
