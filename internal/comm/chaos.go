package comm

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// ChaosConfig parameterizes the chaos transport: a delivery-order
// adversary for the Time Warp kernel. Frames and watermarks wait in one
// queue per link, so a receiver that waits for a watermark waits as long
// as the link holds it, however long ago its sender published. All
// decisions are drawn from per-link PRNGs seeded from Seed, so the
// schedule shape (which item gets how much delay, where stalls begin and
// end) is a pure function of (Seed, src, dst, per-link item index) and
// reproduces across runs of the same workload. The adversary perturbs only
// delivery order and timing: nothing is ever lost or duplicated, and
// per-(src,dst)-link FIFO order is preserved — the freedoms MPI-style
// transports actually have.
type ChaosConfig struct {
	// Seed drives every per-link random decision.
	Seed int64
	// MaxDelay caps the per-item delivery delay (default 200µs).
	MaxDelay time.Duration
	// StallEvery starts a link stall every n-th item (frame or
	// watermark) on that link (0 disables stalls). Stalled links buffer
	// everything and release it as one burst when the stall expires.
	StallEvery int
	// StallFor is the stall duration (default 2ms).
	StallFor time.Duration
	// Obs, when enabled, makes the transport emit one trace instant per
	// link stall window on the comm track. Nil disables (the default).
	Obs *obs.Observer
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.MaxDelay <= 0 {
		c.MaxDelay = 200 * time.Microsecond
	}
	if c.StallFor <= 0 {
		c.StallFor = 2 * time.Millisecond
	}
	return c
}

// Chaos returns a TransportFactory building the chaos transport.
func Chaos(cfg ChaosConfig) TransportFactory {
	return func(k int, deliver DeliverFunc, mark MarkFunc) Transport {
		c := &chaosTransport{
			cfg:     cfg.withDefaults(),
			deliver: deliver,
			mark:    mark,
			k:       k,
			links:   make(map[[2]int]*chaosLink),
			stop:    make(chan struct{}),
		}
		c.wg.Add(1)
		go c.pump()
		return c
	}
}

// heldMsg is a frame, or a watermark when f is nil, waiting in a link's
// limbo queue.
type heldMsg struct {
	f       *Frame
	through uint64
	release time.Time
}

// chaosLink is the per-(src,dst) delivery state.
type chaosLink struct {
	key  [2]int
	rng  *rand.Rand
	q    []heldMsg // FIFO; release times are monotone within the queue
	seq  int       // items seen on this link
	last time.Time // release time of the newest queued/delivered item
}

type chaosTransport struct {
	cfg     ChaosConfig
	deliver DeliverFunc
	mark    MarkFunc
	k       int

	mu    sync.Mutex
	links map[[2]int]*chaosLink
	order []*chaosLink // links in creation order, for deterministic sweeps

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func (c *chaosTransport) link(src, dst int) *chaosLink {
	key := [2]int{src, dst}
	l := c.links[key]
	if l == nil {
		// Distinct deterministic stream per link.
		seed := c.cfg.Seed ^ int64(src+1)*0x9E3779B9 ^ int64(dst+1)*0x85EBCA77
		l = &chaosLink{key: key, rng: rand.New(rand.NewSource(seed))}
		c.links[key] = l
		c.order = append(c.order, l)
	}
	return l
}

// Send queues f on its link (hold).
func (c *chaosTransport) Send(dst int, f *Frame) { c.hold(int(f.Src), dst, heldMsg{f: f}) }

// Mark queues the watermark on each of src's links, behind everything
// sent on it before (hold).
func (c *chaosTransport) Mark(src int, through uint64) {
	for dst := 0; dst < c.k; dst++ {
		if dst != src {
			c.hold(src, dst, heldMsg{through: through})
		}
	}
}

// hold assigns the item a seeded delay (plus a stall window every
// StallEvery items) and queues it on its link. Release times are made
// monotone per link so FIFO order survives any delay draw.
func (c *chaosTransport) hold(src, dst int, h heldMsg) {
	now := time.Now()
	c.mu.Lock()
	l := c.link(src, dst)
	l.seq++
	d := time.Duration(l.rng.Int63n(int64(c.cfg.MaxDelay) + 1))
	if c.cfg.StallEvery > 0 && l.seq%c.cfg.StallEvery == 0 {
		d += c.cfg.StallFor
		// The instant marks where the adversary held a link: the
		// blocked(senders) spans it provokes appear on the receiver tracks.
		c.cfg.Obs.Instant(obs.TrackComm, "link_stall",
			obs.Arg{Key: "src", Val: float64(src)},
			obs.Arg{Key: "dst", Val: float64(dst)},
			obs.Arg{Key: "hold_us", Val: float64(c.cfg.StallFor.Microseconds())})
	}
	rel := now.Add(d)
	if rel.Before(l.last) {
		rel = l.last // preserve per-link FIFO
	}
	l.last = rel
	h.release = rel
	l.q = append(l.q, h)
	c.mu.Unlock()
}

// chaosPump is the background delivery poll period.
const chaosPump = 50 * time.Microsecond

// pump releases due items. Links are swept in an order reshuffled from
// a seeded stream each round, so simultaneous releases on different links
// interleave adversarially rather than in creation order.
func (c *chaosTransport) pump() {
	defer c.wg.Done()
	shuf := rand.New(rand.NewSource(c.cfg.Seed ^ 0x5DEECE66D))
	for {
		select {
		case <-c.stop:
			return
		case <-time.After(chaosPump):
		}
		c.flush(time.Now(), shuf)
	}
}

// flush delivers, per link, the FIFO prefix whose release time has
// passed. Pass a nil shuffler to sweep links in a fixed order (Close).
func (c *chaosTransport) flush(now time.Time, shuf *rand.Rand) {
	c.mu.Lock()
	links := make([]*chaosLink, len(c.order))
	copy(links, c.order)
	if shuf != nil {
		shuf.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	} else {
		sort.Slice(links, func(i, j int) bool {
			return links[i].key[0] < links[j].key[0] ||
				(links[i].key[0] == links[j].key[0] && links[i].key[1] < links[j].key[1])
		})
	}
	type dueMsg struct {
		src, dst int
		heldMsg
	}
	var due []dueMsg
	for _, l := range links {
		n := 0
		for n < len(l.q) && !l.q[n].release.After(now) {
			due = append(due, dueMsg{l.key[0], l.key[1], l.q[n]})
			n++
		}
		if n > 0 {
			l.q = append(l.q[:0], l.q[n:]...)
		}
	}
	c.mu.Unlock()
	// Deliver outside the transport lock: the sinks take link and endpoint
	// locks and may wake receivers that immediately Send (re-entering the
	// transport).
	for _, m := range due {
		if m.f == nil {
			c.mark(m.src, m.dst, m.through)
		} else {
			c.deliver(m.dst, m.f)
		}
	}
}

// Close stops the pump and synchronously flushes everything still held,
// regardless of release time — the no-loss guarantee. Idempotent: a
// second Close finds the pump stopped and nothing queued, and must not
// panic (abort paths and deferred cleanups can both reach it).
func (c *chaosTransport) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	// Far-future "now" releases every queued item.
	c.flush(time.Now().Add(365*24*time.Hour), nil)
}
