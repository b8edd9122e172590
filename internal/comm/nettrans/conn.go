package nettrans

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
)

// isClosedErr reports the benign shutdown errors: clean EOF at a frame
// boundary and reads/writes on a connection we closed ourselves.
func isClosedErr(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed)
}

// LinkDown reports whether err means the stream ended rather than carried
// something illegal: a clean or mid-frame EOF, a reset by a peer that died
// with our bytes unread, or a connection this side closed. A polled data
// plane sees these first when a peer finishes or is killed; the control
// plane owns the diagnosis, so they end the link without an accusation.
func LinkDown(err error) bool {
	return isClosedErr(err) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET)
}

// Conn is a framed, write-locked connection: many goroutines may send
// frames concurrently (whole frames interleave, never bytes), and one
// caller at a time receives them — either blocking in Recv (the control
// plane and the handshakes, parked in the runtime's netpoller until a
// frame arrives) or polling with TryRecv (the worker mesh, read by the
// goroutines that consume the data; DESIGN §21). Send puts a frame on the
// wire before it returns; Queue only appends it to the write buffer, so
// the frames queued since the last flush leave together, in order, in one
// write(2) with the next Send (the worker mesh: a cycle's data frames
// behind their watermark, one write per link per cycle).
type Conn struct {
	c  net.Conn
	r  *bufio.Reader
	wm sync.Mutex
	w  *bufio.Writer

	// Polled receive side. pbuf[ppos:pend] holds bytes read off the socket
	// and not yet handed out as whole frames; perr pins the first failure.
	raw    syscall.RawConn // nil when c has no descriptor (net.Pipe)
	rawFn  func(fd uintptr) bool
	rawN   int
	rawErr error
	pbuf   []byte
	ppos   int
	pend   int
	perr   error

	closeOnce sync.Once
	closeErr  error
}

// NewConn wraps a net.Conn for framed use.
func NewConn(c net.Conn) *Conn {
	conn := &Conn{
		c: c,
		r: bufio.NewReaderSize(c, 64<<10),
		w: bufio.NewWriterSize(c, 64<<10),
	}
	if sc, ok := c.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			conn.raw = raw
			// One read(2) on the non-blocking descriptor. Always "done":
			// returning false would park the caller in the netpoller, the
			// wait TryRecv exists to avoid. Built once so a poll of an idle
			// socket allocates nothing.
			conn.rawFn = func(fd uintptr) bool {
				for {
					conn.rawN, conn.rawErr = syscall.Read(int(fd), conn.pbuf[conn.pend:])
					if conn.rawErr != syscall.EINTR {
						return true
					}
				}
			}
		}
	}
	return conn
}

// Send writes one frame and flushes it, with every frame queued before
// it, to the socket.
func (c *Conn) Send(typ byte, payload []byte) error {
	c.wm.Lock()
	defer c.wm.Unlock()
	if err := WriteFrame(c.w, typ, payload); err != nil {
		return err
	}
	return c.w.Flush()
}

// Queue appends one frame to the write buffer without flushing it: it
// leaves with the next Send, or earlier when the buffer fills. An error is
// the buffer's first failed write, which every later Queue and Send
// returns again.
func (c *Conn) Queue(typ byte, payload []byte) error {
	c.wm.Lock()
	defer c.wm.Unlock()
	return WriteFrame(c.w, typ, payload)
}

// Recv blocks for the next frame. Only one goroutine may call Recv, and
// never while another polls the same connection with TryRecv.
func (c *Conn) Recv() (typ byte, payload []byte, err error) {
	return ReadFrame(c.r)
}

// ErrNoDescriptor reports TryRecv on a connection without a file
// descriptor to poll (net.Pipe).
var ErrNoDescriptor = errors.New("nettrans: connection has no descriptor to poll")

// tryRecvBuf is the polled side's read buffer; a frame longer than this
// grows it to that frame's size.
const tryRecvBuf = 64 << 10

// TryRecv hands every whole frame the socket holds right now to handle, in
// stream order, and returns without waiting for more: nil when the socket
// ran dry (whether or not any frame was complete), otherwise the first
// error — handle's own, an illegal length prefix (ErrFrameEmpty,
// ErrFrameTooLarge), io.EOF at a frame boundary, a truncation error
// wrapping io.ErrUnexpectedEOF when the stream ended inside a frame, or
// the read error. These are ReadFrame's errors on the same bytes, after
// the same frames. The error is sticky: once returned, every later call
// returns it again and delivers nothing.
//
// The payload is valid only inside handle; it aliases the read buffer.
// TryRecv reads the descriptor directly (read(2) through
// syscall.RawConn, unix only) and never parks in the netpoller, so it
// costs one system call on an idle socket. One caller at a time, and no
// Recv beside it: a goroutine blocked in a read holds the descriptor's
// read lock and TryRecv would queue behind it.
func (c *Conn) TryRecv(handle func(typ byte, payload []byte) error) error {
	if c.perr != nil {
		return c.perr
	}
	if c.raw == nil {
		return c.fail(ErrNoDescriptor)
	}
	if c.pbuf == nil {
		c.pbuf = make([]byte, tryRecvBuf)
	}
	// Bytes a Recv before the first TryRecv pulled into its buffered reader
	// (the tail of a handshake read) come first; reading them back never
	// touches the socket.
	for c.r.Buffered() > 0 {
		n, _ := c.r.Read(c.pbuf[c.pend : c.pend+min(c.r.Buffered(), len(c.pbuf)-c.pend)])
		c.pend += n
		if err := c.parse(handle); err != nil {
			return c.fail(err)
		}
	}
	for {
		room := len(c.pbuf) - c.pend
		if err := c.raw.Read(c.rawFn); err != nil {
			return c.fail(err)
		}
		switch {
		case c.rawErr == syscall.EAGAIN:
			return nil
		case c.rawErr != nil:
			return c.fail(fmt.Errorf("nettrans: read %s: %w", c.RemoteAddr(), c.rawErr))
		case c.rawN == 0:
			return c.fail(c.eof())
		}
		c.pend += c.rawN
		if err := c.parse(handle); err != nil {
			return c.fail(err)
		}
		if c.rawN < room {
			return nil // a short read: the socket is empty
		}
	}
}

func (c *Conn) fail(err error) error {
	c.perr = err
	return err
}

// parse hands out every whole frame in pbuf[ppos:pend] and leaves the
// buffer with room to read into: a partial frame moves to the front, and
// the buffer grows when the frame it starts cannot fit.
func (c *Conn) parse(handle func(typ byte, payload []byte) error) error {
	need := 0
	for c.pend-c.ppos >= 4 {
		n, err := frameLen(c.pbuf[c.ppos:])
		if err != nil {
			return err
		}
		if need = 4 + int(n); c.pend-c.ppos < need {
			break
		}
		body := c.pbuf[c.ppos+4 : c.ppos+need]
		c.ppos += need
		if err := handle(body[0], body[1:]); err != nil {
			return err
		}
	}
	if c.ppos == 0 && need <= len(c.pbuf) {
		return nil
	}
	dst := c.pbuf
	if need > len(dst) {
		dst = make([]byte, need)
	}
	c.pend = copy(dst, c.pbuf[c.ppos:c.pend])
	c.ppos, c.pbuf = 0, dst
	return nil
}

// eof names the way the stream ended: cleanly between frames, or inside
// the frame whose first bytes are still buffered.
func (c *Conn) eof() error {
	switch have := c.pend - c.ppos; {
	case have == 0:
		return io.EOF
	case have < 4:
		return errTruncatedHeader()
	default:
		n, _ := frameLen(c.pbuf[c.ppos:]) // parse already accepted it
		return errTruncatedBody(have-4, n)
	}
}

// Close tears the connection down. Idempotent; concurrent senders get
// write errors rather than panics.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.c.Close() })
	return c.closeErr
}

// RemoteAddr exposes the peer address for diagnostics.
func (c *Conn) RemoteAddr() string { return c.c.RemoteAddr().String() }

// Binary append/consume helpers shared by every frame payload in the
// protocol. Encoding is fixed-width big-endian; decoding is through Dec,
// which turns any underflow into a sticky error instead of a panic —
// the property the garbage-frame tests pin.

// AppendU8 appends one byte.
func AppendU8(dst []byte, v byte) []byte { return append(dst, v) }

// AppendU32 appends a big-endian uint32.
func AppendU32(dst []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, v)
}

// AppendU64 appends a big-endian uint64.
func AppendU64(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

// AppendI64 appends a big-endian int64 (two's complement).
func AppendI64(dst []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v))
}

// AppendBytes appends a u32-length-prefixed byte slice.
func AppendBytes(dst, v []byte) []byte {
	dst = AppendU32(dst, uint32(len(v)))
	return append(dst, v...)
}

// AppendStr appends a u32-length-prefixed string.
func AppendStr(dst []byte, v string) []byte {
	dst = AppendU32(dst, uint32(len(v)))
	return append(dst, v...)
}

// ErrShortPayload reports a payload that ended before the field being
// decoded — truncation or garbage, surfaced as an error, never a panic.
var ErrShortPayload = errors.New("nettrans: payload truncated")

// Dec consumes a frame payload field by field. The first underflow makes
// every subsequent read return zero values and pins the error; callers
// check Err() once at the end.
type Dec struct {
	p   []byte
	err error
}

// NewDec wraps a payload for decoding.
func NewDec(p []byte) *Dec { return &Dec{p: p} }

// Err returns the sticky decode error, nil when every field fit.
func (d *Dec) Err() error { return d.err }

// Len returns how many bytes remain undecoded (0 after an error).
func (d *Dec) Len() int {
	if d.err != nil {
		return 0
	}
	return len(d.p)
}

// Rest returns the undecoded remainder (used for nested payloads).
func (d *Dec) Rest() []byte {
	if d.err != nil {
		return nil
	}
	r := d.p
	d.p = nil
	return r
}

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.p) < n {
		d.err = ErrShortPayload
		return nil
	}
	v := d.p[:n]
	d.p = d.p[n:]
	return v
}

// U8 consumes one byte.
func (d *Dec) U8() byte {
	v := d.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

// U32 consumes a big-endian uint32.
func (d *Dec) U32() uint32 {
	v := d.take(4)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint32(v)
}

// U64 consumes a big-endian uint64.
func (d *Dec) U64() uint64 {
	v := d.take(8)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

// I64 consumes a big-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Bytes consumes a u32-length-prefixed byte slice. The result aliases
// the payload; copy it to retain beyond the frame's lifetime.
func (d *Dec) Bytes() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if uint64(n) > uint64(len(d.p)) {
		d.err = ErrShortPayload
		return nil
	}
	return d.take(int(n))
}

// Str consumes a u32-length-prefixed string.
func (d *Dec) Str() string { return string(d.Bytes()) }
