package nettrans

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/comm"
)

// LoopbackConfig parameterizes the loopback wire transport.
type LoopbackConfig struct {
	// Codec serializes/deserializes message payloads (required).
	Codec Codec
	// Inner, when non-nil, is a delivery-side transport the decoded
	// messages pass through after the socket — layering comm.Chaos here
	// puts the delivery-order adversary directly on the wire link, the
	// configuration the fuzz harness uses to attack the framed path.
	Inner comm.TransportFactory
}

// Loopback builds a TransportFactory that ships every inter-cluster
// message over a real TCP connection on 127.0.0.1: Send serializes and
// frames the message onto the socket, a reader goroutine on the accept
// side decodes and delivers. It is the single-process proof of the wire
// path — same framing, same codec, same FIFO argument as the multi-worker
// mesh (one stream, TCP byte order = delivery order) — which lets the
// differential fuzzer and the chaos adversary attack the socket link
// without orchestrating processes.
//
// Setup failure (cannot listen or dial on loopback) panics: the factory
// signature has no error path, and a machine that cannot open a loopback
// socket cannot run the harness that asked for one.
func Loopback(cfg LoopbackConfig) comm.TransportFactory {
	return func(k int, deliver comm.DeliverFunc) comm.Transport {
		if cfg.Codec == nil {
			panic("nettrans: Loopback requires a Codec")
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(fmt.Sprintf("nettrans: loopback listen: %v", err))
		}
		type acceptRes struct {
			c   net.Conn
			err error
		}
		acceptCh := make(chan acceptRes, 1)
		go func() {
			c, err := ln.Accept()
			acceptCh <- acceptRes{c, err}
		}()
		out, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			ln.Close()
			panic(fmt.Sprintf("nettrans: loopback dial: %v", err))
		}
		acc := <-acceptCh
		ln.Close()
		if acc.err != nil {
			out.Close()
			panic(fmt.Sprintf("nettrans: loopback accept: %v", acc.err))
		}

		t := &loopbackTransport{
			codec: cfg.Codec,
			k:     k,
			out:   NewConn(out),
			in:    NewConn(acc.c),
		}
		if cfg.Inner != nil {
			t.inner = cfg.Inner(k, deliver)
		} else {
			t.inner = directDeliver{deliver}
		}
		t.wg.Add(1)
		go t.readLoop()
		return t
	}
}

// directDeliver adapts a DeliverFunc to the Transport shape for the
// no-inner-adversary case.
type directDeliver struct{ deliver comm.DeliverFunc }

func (d directDeliver) Send(src, dst int, msg comm.Message) { d.deliver(dst, msg) }
func (d directDeliver) Close()                              {}

type loopbackTransport struct {
	codec Codec
	k     int
	out   *Conn // write side: Send frames here
	in    *Conn // read side: readLoop drains here
	inner comm.Transport

	encMu  sync.Mutex
	encBuf []byte

	closeOnce sync.Once
	wg        sync.WaitGroup
	readErr   atomic.Pointer[error]
}

// Send serializes the message and writes one data frame. The write lock
// inside Conn makes whole frames atomic; per-link FIFO follows from each
// cluster goroutine sending its own messages in order onto one stream.
func (t *loopbackTransport) Send(src, dst int, msg comm.Message) {
	t.encMu.Lock()
	buf := t.encBuf[:0]
	buf = AppendDataFrame(buf, src, dst, 0, nil)
	var err error
	buf, err = t.codec.Append(buf, msg)
	if err != nil {
		t.encMu.Unlock()
		// An unencodable message is a programming error (unknown payload
		// type), not a runtime condition: fail loudly, like the kernel
		// does for unknown payloads on the receive side.
		panic(fmt.Sprintf("nettrans: encode %T: %v", msg, err))
	}
	sendErr := t.out.Send(FrameData, buf)
	t.encBuf = buf
	t.encMu.Unlock()
	if sendErr != nil {
		t.noteReadErr(sendErr)
	}
}

func (t *loopbackTransport) readLoop() {
	defer t.wg.Done()
	for {
		typ, payload, err := t.in.Recv()
		if err != nil {
			// EOF after the writer's CloseWrite is the clean shutdown;
			// anything else is recorded for Err.
			t.noteReadErr(err)
			return
		}
		if typ != FrameData {
			t.noteReadErr(fmt.Errorf("nettrans: unexpected frame type 0x%02x on loopback link", typ))
			return
		}
		df, err := DecodeDataFrame(payload, t.k)
		if err != nil {
			t.noteReadErr(err)
			return
		}
		msg, err := t.codec.Decode(df.Msg)
		if err != nil {
			t.noteReadErr(err)
			return
		}
		t.inner.Send(df.Src, df.Dst, msg)
	}
}

func (t *loopbackTransport) noteReadErr(err error) {
	if isClosedErr(err) {
		return
	}
	t.readErr.CompareAndSwap(nil, &err)
}

// Close flushes the wire: half-closes the write side so the reader sees
// EOF exactly after the last frame, waits for the reader to deliver
// everything into the inner transport, then closes the inner transport
// (flushing any chaos-held messages) and the sockets. Idempotent.
func (t *loopbackTransport) Close() {
	t.closeOnce.Do(func() {
		if tc, ok := t.out.c.(*net.TCPConn); ok {
			t.out.wm.Lock()
			t.out.w.Flush()
			tc.CloseWrite()
			t.out.wm.Unlock()
		} else {
			t.out.Close()
		}
		t.wg.Wait()
		t.inner.Close()
		t.out.Close()
		t.in.Close()
	})
}

// Err reports the first wire failure the transport saw ("" clean). The
// kernel's stall watchdog is what turns a dead link into a run abort;
// Err is the diagnostic tests read afterwards.
func (t *loopbackTransport) Err() error {
	if p := t.readErr.Load(); p != nil {
		return *p
	}
	return nil
}
