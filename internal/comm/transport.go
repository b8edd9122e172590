package comm

// DeliverFunc appends f to the queue of its link, f.Src→dst, at endpoint
// dst. It is the network-side sink handed to transports; calling it is the
// only way a frame becomes visible to a receiver.
type DeliverFunc func(dst int, f *Frame)

// MarkFunc files through as the watermark the src→dst link has delivered:
// dst has received everything src sent it before it marked through. It is
// the network-side sink for watermarks, as DeliverFunc is for frames.
type MarkFunc func(src, dst int, through uint64)

// Transport decides when and in what order sent frames reach their
// destination endpoints. Implementations MUST preserve Time Warp delivery
// semantics:
//
//   - no loss: every frame handed to Send is eventually delivered
//     exactly once (Close flushes anything still held);
//   - no duplication;
//   - per-link FIFO: frames and watermarks on the same (src, dst) pair
//     are delivered in send order. The kernel relies on this — a
//     watermark must never overtake a frame sent before it.
//
// Cross-link ordering and timing are entirely up to the transport; that is
// the degree of freedom the chaos transport exploits.
type Transport interface {
	// Send routes one frame from endpoint f.Src to endpoint dst.
	Send(dst int, f *Frame)
	// Mark carries src's watermark through to every other endpoint, on
	// each link behind everything src sent on it before, and hands it to
	// the MarkFunc as it arrives at each. A transport that knows which
	// endpoints never read src's watermark may leave them out (the worker
	// mesh does); every link src sends on is read.
	Mark(src int, through uint64)
	// Close flushes all held frames and stops any background delivery.
	// The network calls it exactly once, after the last Send.
	Close()
}

// Poller is the optional receive half of a Transport whose deliveries
// come from somewhere that must be polled — a wire transport whose sockets
// nobody reads in the background. Endpoint.Poll and AwaitHeard call Poll
// while a receiver waits for a watermark, and the watermark arrives behind
// the frames it covers, so the goroutine that consumes a frame is the one
// that fetches it, the way an MPI progress engine is driven from the
// caller's own loop; Take then only pops the link's queue. Poll must not
// block, must be safe to call from every receiver at once, and delivers
// through the transport's DeliverFunc like any other delivery.
type Poller interface {
	Poll()
}

// TransportFactory builds a transport for a k-endpoint network, delivering
// through the given sinks. A nil factory selects direct delivery.
type TransportFactory func(k int, deliver DeliverFunc, mark MarkFunc) Transport

// directTransport delivers synchronously inside Send and Mark — the
// benign in-process behaviour.
type directTransport struct {
	k       int
	deliver DeliverFunc
	mark    MarkFunc
}

func (d directTransport) Send(dst int, f *Frame) { d.deliver(dst, f) }
func (d directTransport) Close()                 {}

func (d directTransport) Mark(src int, through uint64) {
	for dst := 0; dst < d.k; dst++ {
		if dst != src {
			d.mark(src, dst, through)
		}
	}
}
