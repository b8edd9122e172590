// Package comm is the message-passing substrate for the Time Warp kernel —
// the role MPICH played under DVS. Endpoints are in-process mailboxes with
// unbounded buffering (sends never block). The network counts nothing: the
// Time Warp kernel counts the frames it sends and absorbs per cluster.
//
// Every link (src, dst) carries two things in one FIFO order: messages, and
// src's watermarks — "everything I send you for the cycles below this one
// is ahead of this mark". A receiver reads the watermark its link from src
// has delivered (Heard) and can block until it reaches a cycle
// (AwaitHeard): that is the whole synchronisation a conservative cluster
// needs, on every transport.
//
// Delivery is pluggable: the default transport hands messages and
// watermarks over synchronously, while the chaos transport (see Chaos)
// holds both in seeded per-link queues with delays, cross-link reordering
// and burst/stall schedules, so a watermark's arrival, and not only a
// sender's progress, decides when a receiver may go on. Every transport
// must preserve exactly-once, per-link-FIFO delivery.
package comm

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Message is an opaque payload routed between endpoints. The Time Warp
// kernel sends one kind, a cycle's frame of the flip-flop values a
// receiver reads; the transport neither knows nor cares — a message counts
// once for delivery and FIFO ordering.
type Message any

// Network connects K endpoints.
type Network struct {
	eps      []*Endpoint
	tr       Transport
	poller   Poller // tr when it must be polled for deliveries, else nil
	trClosed sync.Once
}

// NewNetwork creates a network with k endpoints and direct (synchronous)
// delivery.
func NewNetwork(k int) *Network {
	return NewNetworkTransport(k, nil)
}

// NewNetworkTransport creates a network whose deliveries are routed
// through the transport built by f (nil f selects direct delivery). The
// caller must call CloseTransport when no more sends will happen, so
// transports with background delivery can flush and stop.
func NewNetworkTransport(k int, f TransportFactory) *Network {
	n := &Network{eps: make([]*Endpoint, k)}
	marks := make([]atomic.Uint64, k*k) // one row of heard watermarks per endpoint
	for i := range n.eps {
		ep := &Endpoint{id: i, net: n, heard: marks[i*k : (i+1)*k]}
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

// enqueue places a message in destination dst's mailbox. It is the
// delivery sink handed to transports. Nobody waits for a message: a
// receiver waits for the watermark behind it (AwaitHeard), and mark wakes
// it.
func (n *Network) enqueue(dst int, msg Message) {
	d := n.eps[dst]
	d.mu.Lock()
	d.box = append(d.box, msg)
	d.ready.Store(true)
	d.mu.Unlock()
}

// mark files through as the src→dst link's watermark and wakes dst if it
// waits for one. It is the watermark sink handed to transports. A link is
// FIFO, so its watermarks arrive in order; the comparison only keeps a
// stale one from lowering what is filed. The watermark is stored before the
// waiter count is read, and AwaitHeard raises the count before it reads the
// watermark, so a mark either is seen by the waiter's check or wakes it.
func (n *Network) mark(src, dst int, through uint64) {
	d := n.eps[dst]
	if w := &d.heard[src]; through > w.Load() {
		w.Store(through)
	}
	if d.waiting.Load() > 0 {
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	}
}

// CloseTransport flushes and stops the transport. Call after the last
// Send; messages still held by the transport are delivered synchronously.
// Idempotent: abort paths and deferred cleanups may both reach it, and the
// second call must neither panic nor lose messages the first one flushed.
func (n *Network) CloseTransport() { n.trClosed.Do(n.tr.Close) }

// Endpoint returns endpoint i.
func (n *Network) Endpoint(i int) *Endpoint { return n.eps[i] }

// Endpoint is one mailbox, emptied by one receiver. TryRecvAll hands out
// the mailbox's own buffer: the returned slice is valid until the next
// TryRecvAll on the endpoint and must not be kept across it.
type Endpoint struct {
	id   int
	net  *Network
	mu   sync.Mutex
	cond *sync.Cond
	box  []Message
	// spare is the buffer the previous drain handed out; the next drain
	// makes it the mailbox again, so a steady exchange allocates nothing.
	spare []Message
	// ready mirrors len(box) > 0. It is written under mu and read without
	// it: the receiver's idle poll costs one atomic load, no lock.
	ready atomic.Bool
	// closed wakes receivers blocked in AwaitHeard permanently.
	closed bool
	// heard[src] is the watermark the src→e link has delivered; waiting
	// counts the goroutines blocked in AwaitHeard.
	heard   []atomic.Uint64
	waiting atomic.Int32
}

// Send hands msg to the network transport for delivery to endpoint dst.
// It never blocks. With the default direct transport the message is in
// dst's mailbox when Send returns; other transports may hold it.
func (e *Endpoint) Send(dst int, msg Message) { e.net.tr.Send(e.id, dst, msg) }

// Mark sends e's watermark through to the other endpoints, on each link
// behind everything e sent on it before (see Transport.Mark for which
// endpoints). It never blocks and is not counted as a message.
func (e *Endpoint) Mark(through uint64) { e.net.tr.Mark(e.id, through) }

// Heard returns the watermark the src→e link has delivered so far.
func (e *Endpoint) Heard(src int) uint64 { return e.heard[src].Load() }

// AwaitHeard blocks until the src→e link has delivered a watermark of at
// least through or the endpoint is closed, and reports whether the
// watermark arrived. Over a polled transport nothing but a poll delivers
// the watermark, so the caller polls, yielding the processor between
// polls; otherwise it sleeps until the watermark or the close wakes it.
func (e *Endpoint) AwaitHeard(src int, through uint64) bool {
	if p := e.net.poller; p != nil {
		for e.heard[src].Load() < through && !e.isClosed() {
			p.Poll()
			runtime.Gosched()
		}
		return e.heard[src].Load() >= through
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.waiting.Add(1)
	defer e.waiting.Add(-1)
	for e.heard[src].Load() < through && !e.closed {
		e.cond.Wait()
	}
	return e.heard[src].Load() >= through
}

func (e *Endpoint) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// Poll gives a polled transport the chance to deliver what its sockets
// hold, messages and watermarks, without blocking.
func (e *Endpoint) Poll() {
	if p := e.net.poller; p != nil {
		p.Poll()
	}
}

// drain takes everything queued (nil when empty) and swaps the two mailbox
// buffers. Caller holds e.mu.
func (e *Endpoint) drain() []Message {
	if len(e.box) == 0 {
		return nil
	}
	msgs := e.box
	clear(e.spare) // the previous drain's messages: let go of them
	e.box, e.spare = e.spare[:0], msgs
	e.ready.Store(false)
	return msgs
}

// TryRecvAll drains and returns all queued messages without blocking
// (nil when empty). It does not poll a polled transport: a link delivers a
// sender's messages ahead of the watermark behind them, so a receiver that
// has heard the watermarks it waits for (Heard, AwaitHeard, Poll) already
// holds what they cover. Drain-after-close is guaranteed: messages queued
// before (or even after) Close remain receivable — Close only wakes
// blocked receivers, it never discards the mailbox.
func (e *Endpoint) TryRecvAll() []Message {
	if !e.ready.Load() {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.drain()
}

// Close wakes any receiver blocked in AwaitHeard on this endpoint, which
// then reports no watermark. Idempotent, and it never discards queued
// messages: TryRecvAll still drains them.
func (e *Endpoint) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.cond.Broadcast()
}
