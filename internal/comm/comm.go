// Package comm is the message-passing substrate for the Time Warp kernel —
// the role MPICH played under DVS. Endpoints are in-process mailboxes with
// unbounded buffering (sends never block, so optimistic clusters cannot
// deadlock on full channels), and the network counts messages sent and in
// flight.
//
// Delivery is pluggable: the default transport hands messages to the
// destination mailbox synchronously, while the chaos transport (see
// Chaos) injects seeded delays, cross-link reordering and burst/stall
// schedules to adversarially exercise the kernel's rollback machinery.
// Every transport must preserve exactly-once, per-link-FIFO delivery —
// the delivery-order freedoms are the only ones Time Warp semantics
// permit.
package comm

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Message is an opaque payload routed between endpoints. A payload may
// itself be a batch (the Time Warp kernel coalesces the events bound for
// one destination within a cycle into slice-valued Messages); the
// transport neither knows nor cares — a batch counts as one message for
// delivery, FIFO ordering and the sent/in-flight accounting, and the
// receiver unpacks it in order, so batching inherits per-link FIFO from
// the transport guarantee below.
type Message any

// Network connects K endpoints.
type Network struct {
	eps      []*Endpoint
	inFlight atomic.Int64
	sent     atomic.Uint64
	tr       Transport
	poller   Poller // tr when it must be polled for deliveries, else nil
	trClosed sync.Once
}

// Instrument registers the in-flight gauge with reg; a nil registry is a
// no-op. Messages sent are the kernel's tw_batches, so the network counts
// nothing of its own on the send or receive path.
func (n *Network) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.SampleFunc("comm_inflight", "sent-but-not-received messages",
		func() float64 { return float64(n.inFlight.Load()) })
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
	for i := range n.eps {
		ep := &Endpoint{id: i, net: n}
		ep.cond = sync.NewCond(&ep.mu)
		n.eps[i] = ep
	}
	if f == nil {
		n.tr = directTransport{deliver: n.enqueue}
	} else {
		n.tr = f(k, n.enqueue)
	}
	n.poller, _ = n.tr.(Poller)
	return n
}

// enqueue places a message in destination dst's mailbox and wakes a
// blocked receiver. It is the delivery sink handed to transports.
func (n *Network) enqueue(dst int, msg Message) {
	d := n.eps[dst]
	d.mu.Lock()
	d.box = append(d.box, msg)
	d.ready.Store(true)
	d.mu.Unlock()
	d.cond.Signal()
}

// CloseTransport flushes and stops the transport. Call after the last
// Send; messages still held by the transport are delivered synchronously.
// Idempotent: abort paths and deferred cleanups may both reach it, and the
// second call must neither panic nor lose messages the first one flushed.
func (n *Network) CloseTransport() { n.trClosed.Do(n.tr.Close) }

// NoteDeparted records that a message handed to the transport left this
// process entirely (a wire transport shipped it to a peer network), so it
// no longer counts against the local in-flight gauge. NoteArrived is the
// mirror: a message from a peer network is about to be enqueued locally
// and must count as in flight until a receiver drains it. Distributed
// runs sum per-process InFlight to recover the true global figure.
func (n *Network) NoteDeparted() { n.inFlight.Add(-1) }

// NoteArrived records a wire message entering this network; see
// NoteDeparted.
func (n *Network) NoteArrived() { n.inFlight.Add(1) }

// Endpoint returns endpoint i.
func (n *Network) Endpoint(i int) *Endpoint { return n.eps[i] }

// InFlight returns the number of sent-but-not-received messages.
func (n *Network) InFlight() int64 { return n.inFlight.Load() }

// TotalSent returns the total number of messages sent on the network.
func (n *Network) TotalSent() uint64 { return n.sent.Load() }

// Endpoint is one mailbox, drained by one receiver. The receive calls hand
// out the mailbox's own buffer: the returned slice is valid until the next
// receive call on the endpoint and must not be kept across it.
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
	// closed wakes blocked receivers permanently.
	closed bool
}

// ID returns the endpoint index.
func (e *Endpoint) ID() int { return e.id }

// Send hands msg to the network transport for delivery to endpoint dst.
// It never blocks. With the default direct transport the message is in
// dst's mailbox when Send returns; other transports may hold it — but a
// held message still counts as in flight, so the sent/in-flight counters
// the Time Warp termination logic reads stay conservative.
func (e *Endpoint) Send(dst int, msg Message) {
	n := e.net
	n.inFlight.Add(1)
	n.sent.Add(1)
	n.tr.Send(e.id, dst, msg)
}

// Poll gives a polled transport the chance to deliver what its sockets
// hold; with any other transport it does nothing.
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
	e.net.inFlight.Add(int64(-len(msgs)))
	return msgs
}

// TryRecvAll drains and returns all queued messages without blocking
// (nil when empty), after giving a polled transport the chance to deliver
// what its sockets hold. Drain-after-close is guaranteed: messages queued
// before (or even after) Close remain receivable — Close only wakes
// blocked receivers, it never discards the mailbox.
func (e *Endpoint) TryRecvAll() []Message {
	e.Poll()
	if !e.ready.Load() {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.drain()
}

// RecvWait blocks until at least one message is queued or the endpoint is
// closed, then drains the mailbox. It returns nil only when closed AND
// the mailbox is empty — a closed endpoint first hands over everything
// still queued (drain-after-close), so no message is lost to shutdown.
func (e *Endpoint) RecvWait() []Message {
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.box) == 0 && !e.closed {
		e.cond.Wait()
	}
	return e.drain()
}

// Close wakes any blocked receiver on this endpoint. Idempotent, and it
// never discards queued messages: subsequent Receive calls drain them
// (see RecvWait/TryRecvAll) before reporting closure.
func (e *Endpoint) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.cond.Broadcast()
}
