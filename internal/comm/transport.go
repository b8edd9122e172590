package comm

// DeliverFunc enqueues a message into the destination endpoint's mailbox.
// It is the network-side sink handed to transports; calling it is the only
// way a message becomes visible to a receiver.
type DeliverFunc func(dst int, msg Message)

// Transport decides when and in what order sent messages reach their
// destination mailboxes. Implementations MUST preserve Time Warp delivery
// semantics:
//
//   - no loss: every message handed to Send is eventually delivered
//     exactly once (Close flushes anything still held);
//   - no duplication;
//   - per-link FIFO: messages on the same (src, dst) pair are delivered in
//     send order. The kernel relies on this — an anti-message must never
//     overtake the positive event it cancels on the same link.
//
// Cross-link ordering and timing are entirely up to the transport; that is
// the degree of freedom the chaos transport exploits.
type Transport interface {
	// Send routes one message from endpoint src to endpoint dst.
	Send(src, dst int, msg Message)
	// Close flushes all held messages and stops any background delivery.
	// The network calls it exactly once, after the last Send.
	Close()
}

// Poller is the optional receive half of a Transport whose deliveries
// come from somewhere that must be polled — a wire transport whose sockets
// nobody reads in the background. A receiver calls Poll before it looks in
// its mailbox (Endpoint.TryRecvAll does; Endpoint.Poll is the call on its
// own, for a receiver that watches Endpoint.Pending meanwhile), so the
// goroutine that consumes a message is the one that fetches it, the way an
// MPI progress engine is driven from the caller's own loop. Poll must not block, must be safe to
// call from every receiver at once, and delivers through the transport's
// DeliverFunc like any other delivery.
type Poller interface {
	Poll()
}

// TransportFactory builds a transport for a k-endpoint network, delivering
// through the given sink. A nil factory selects direct delivery.
type TransportFactory func(k int, deliver DeliverFunc) Transport

// directTransport delivers synchronously inside Send — the original
// benign in-process behaviour.
type directTransport struct {
	deliver DeliverFunc
}

func (d directTransport) Send(src, dst int, msg Message) { d.deliver(dst, msg) }
func (d directTransport) Close()                         {}
