// Package comm is the message-passing substrate for the Time Warp kernel —
// the role MPICH played under DVS. Every link (src, dst) carries frames
// and src's watermarks in one FIFO order — a watermark says "everything I
// send you for the cycles below this one is ahead of me". The receiving
// endpoint keeps each link's unbounded queue of frames (sends never
// block), from which a receiver takes the front frame once its cycle has
// come (Take), and the watermark it has delivered (Heard), which a
// receiver can block on (AwaitHeard): that is the whole synchronisation a
// conservative cluster needs, on every transport. The network counts
// nothing: the kernel counts the frames each cluster sends and takes.
//
// Delivery is pluggable: the default transport hands frames and
// watermarks over synchronously, while the chaos transport (see Chaos)
// holds both in seeded per-link queues with delays, cross-link reordering
// and burst/stall schedules, so a watermark's arrival, and not only a
// sender's progress, decides when a receiver may go on. Every transport
// must preserve exactly-once, per-link-FIFO delivery.
package comm

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Frame is the one payload of a link: for cycle T, the receiver's cycle
// that reads them, the values of endpoint Src's flip-flops the receiver
// reads, bit i of Words the i-th in the order both ends derive from the
// netlist and the partition, the padding bits of the last word zero. A
// frame is never written after it is sent: the receiver only reads it.
type Frame struct {
	T     uint64
	Src   int32
	Words []uint64
}

// Network connects K endpoints.
type Network struct {
	eps      []*Endpoint
	tr       Transport
	poller   Poller // tr when it must be polled for deliveries, else nil
	trClosed sync.Once
}

// NewNetwork creates a network with k endpoints and direct (synchronous)
// delivery.
func NewNetwork(k int) *Network { return NewNetworkTransport(k, nil) }

// NewNetworkTransport creates a network whose deliveries are routed
// through the transport built by f (nil f selects direct delivery). The
// caller must call CloseTransport when no more sends will happen, so
// transports with background delivery can flush and stop.
func NewNetworkTransport(k int, f TransportFactory) *Network {
	n := &Network{eps: make([]*Endpoint, k)}
	links := make([]link, k*k) // one row of links into each endpoint
	for i := range n.eps {
		ep := &Endpoint{id: i, net: n, links: links[i*k : (i+1)*k]}
		ep.cond = sync.NewCond(&ep.mu)
		n.eps[i] = ep
	}
	if f == nil {
		n.tr = directTransport{k: k, deliver: n.enqueue, mark: n.mark}
	} else {
		n.tr = f(k, n.enqueue, n.mark)
	}
	n.poller, _ = n.tr.(Poller)
	return n
}

// enqueue appends f to the queue of its link at destination dst. It is the
// delivery sink handed to transports. Nobody waits for a frame: a receiver
// waits for the watermark behind it (AwaitHeard), and mark wakes it.
func (n *Network) enqueue(dst int, f *Frame) {
	l := &n.eps[dst].links[f.Src]
	l.mu.Lock()
	l.q = append(l.q, f)
	l.mu.Unlock()
}

// mark files through as the src→dst link's watermark and wakes dst if it
// waits for one. It is the watermark sink handed to transports. A link is
// FIFO, so its watermarks arrive in order; the comparison only keeps a
// stale one from lowering what is filed. The watermark is stored before the
// waiter count is read, and AwaitHeard raises the count before it reads the
// watermark, so a mark either is seen by the waiter's check or wakes it.
func (n *Network) mark(src, dst int, through uint64) {
	d := n.eps[dst]
	if w := &d.links[src].heard; through > w.Load() {
		w.Store(through)
	}
	if d.waiting.Load() > 0 {
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	}
}

// CloseTransport flushes and stops the transport. Call after the last
// Send; frames still held by the transport are delivered synchronously.
// Idempotent: abort paths and deferred cleanups may both reach it, and the
// second call must neither panic nor lose frames the first one flushed.
func (n *Network) CloseTransport() { n.trClosed.Do(n.tr.Close) }

// Endpoint returns endpoint i.
func (n *Network) Endpoint(i int) *Endpoint { return n.eps[i] }

// Endpoint is the receiving end of the links into one endpoint, read by
// one receiver.
type Endpoint struct {
	id    int
	net   *Network
	links []link // links[src] is the src→e link
	// closed, set under mu, wakes receivers blocked in AwaitHeard for
	// good; waiting counts them.
	mu      sync.Mutex
	cond    *sync.Cond
	closed  atomic.Bool
	waiting atomic.Int32
}

// link is what one link has delivered: the queue of the frames the
// receiver has not taken, front first, and the latest watermark. Its
// sender's delivery appends to q, the receiver's Take pops the front, so
// q's capacity settles at the most frames the link ever held and a steady
// exchange allocates nothing.
type link struct {
	mu    sync.Mutex
	q     []*Frame
	heard atomic.Uint64
}

// Send hands f, a frame of endpoint f.Src, to the transport for endpoint
// dst. It never blocks. Direct delivery has queued the frame on its link
// when Send returns; other transports may hold it.
func (e *Endpoint) Send(dst int, f *Frame) { e.net.tr.Send(dst, f) }

// Mark sends e's watermark through to the other endpoints, on each link
// behind everything e sent on it before (see Transport.Mark for which
// endpoints). It never blocks and is not counted as a frame.
func (e *Endpoint) Mark(through uint64) { e.net.tr.Mark(e.id, through) }

// Heard returns the watermark the src→e link has delivered so far.
func (e *Endpoint) Heard(src int) uint64 { return e.links[src].heard.Load() }

// AwaitHeard blocks until the src→e link has delivered a watermark of at
// least through or the endpoint is closed, and reports whether the
// watermark arrived. Over a polled transport nothing but a poll delivers
// the watermark, so the caller polls, yielding the processor between
// polls; otherwise it sleeps until the watermark or the close wakes it.
func (e *Endpoint) AwaitHeard(src int, through uint64) bool {
	heard := &e.links[src].heard
	if p := e.net.poller; p != nil {
		for heard.Load() < through && !e.closed.Load() {
			p.Poll()
			runtime.Gosched()
		}
		return heard.Load() >= through
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.waiting.Add(1)
	defer e.waiting.Add(-1)
	for heard.Load() < through && !e.closed.Load() {
		e.cond.Wait()
	}
	return heard.Load() >= through
}

// Poll gives a polled transport the chance to deliver what its sockets
// hold, frames and watermarks, without blocking.
func (e *Endpoint) Poll() {
	if p := e.net.poller; p != nil {
		p.Poll()
	}
}

// Take pops the front frame of the src→e link when it is stamped cycle cyc
// or earlier, and returns nil otherwise. The caller checks the frame it is
// handed: one stamped before cyc is a straggler. Take does not poll a
// polled transport: a link delivers a sender's frames ahead of the
// watermark behind them, so a receiver that has heard the watermarks it
// waits for (Heard, AwaitHeard, Poll) already holds what they cover.
// Close discards nothing: frames delivered before or after it can still
// be taken.
func (e *Endpoint) Take(src int, cyc uint64) *Frame {
	l := &e.links[src]
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.q) == 0 || l.q[0].T > cyc {
		return nil
	}
	f := l.q[0]
	l.q = slices.Delete(l.q, 0, 1) // clears the vacated slot
	return f
}

// Queued reports how many frames the src→e link holds, and the capacity
// its queue has grown to: what the link costs in memory.
func (e *Endpoint) Queued(src int) (n, capacity int) {
	l := &e.links[src]
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.q), cap(l.q)
}

// Close wakes any receiver blocked in AwaitHeard on this endpoint, which
// then reports no watermark. Idempotent, and it never discards queued
// frames: Take still pops them.
func (e *Endpoint) Close() {
	e.mu.Lock()
	e.closed.Store(true)
	e.mu.Unlock()
	e.cond.Broadcast()
}
