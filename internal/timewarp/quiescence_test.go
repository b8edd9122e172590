package timewarp

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

// A run is quiescent once every cluster has run its cycles: it ends by
// count (DESIGN §19), and the progress watchdog tells that end from a
// stall. The tests here pin the watchdog's decisions and model-check the
// count-termination argument on ground-truth schedules.

// TestQuiescenceDecisions pins the progress watchdog's rules on
// hand-written sample sequences: done once every cluster has published
// Cycles, a stall abort after StallTimeout without a move unless done, the
// hard cap while clusters still move, and neither by default.
func TestQuiescenceDecisions(t *testing.T) {
	const cycles = 10
	ms := time.Millisecond
	type step struct {
		at       time.Duration // sample time, relative to the watchdog's start
		progress []uint64
		moved    bool
		done     bool
		abort    string // substring of the diagnosis; "" = no abort
	}
	for _, tc := range []struct {
		name           string
		stall, hardCap time.Duration
		steps          []step
	}{
		{name: "done once every cluster has run its cycles", steps: []step{
			{progress: []uint64{0, 0}},
			{progress: []uint64{cycles, 7}, moved: true},
			{progress: []uint64{cycles, 7}},
			{progress: []uint64{cycles, cycles}, moved: true, done: true},
		}},
		{name: "stall: quiet for longer than the timeout with work left", stall: 250 * ms, steps: []step{
			{at: 0, progress: []uint64{3, 3}, moved: true},
			{at: 200 * ms, progress: []uint64{3, 3}},
			// A move restarts the clock.
			{at: 240 * ms, progress: []uint64{3, 4}, moved: true},
			{at: 480 * ms, progress: []uint64{3, 4}},
			{at: 500 * ms, progress: []uint64{3, 4}, abort: "stalled"},
		}},
		// Done means absorbed too: every frame is taken by its receiver's
		// last cycle at the latest (FuzzQuiescence).
		{name: "no stall abort once everything is done and absorbed", stall: 250 * ms, steps: []step{
			{at: 0, progress: []uint64{cycles, cycles}, moved: true, done: true},
			{at: 900 * ms, progress: []uint64{cycles, cycles}, done: true},
		}},
		{name: "timeouts are off by default", steps: []step{
			{at: 0, progress: []uint64{3, 3}, moved: true},
			{at: time.Hour, progress: []uint64{3, 3}},
		}},
		{name: "livelock: the hard cap fires while activity continues", stall: 250 * ms, hardCap: time.Second, steps: []step{
			{at: 0, progress: []uint64{3, 3}, moved: true},
			{at: 400 * ms, progress: []uint64{4, 3}, moved: true},
			{at: 800 * ms, progress: []uint64{5, 3}, moved: true},
			{at: 1200 * ms, progress: []uint64{6, 3}, moved: true, abort: "hard cap"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t0 := time.Unix(1000, 0)
			wd := newWatchdog(2, cycles, tc.stall, tc.hardCap, t0)
			for i, st := range tc.steps {
				v := wd.step(st.progress, t0.Add(st.at))
				if v.moved != st.moved || v.done != st.done || v.minProg != min(st.progress[0], st.progress[1]) {
					t.Fatalf("step %d: got moved=%v done=%v min=%d, want moved=%v done=%v",
						i, v.moved, v.done, v.minProg, st.moved, st.done)
				}
				if (st.abort == "") != (v.abort == "") || !strings.Contains(v.abort, st.abort) {
					t.Fatalf("step %d: abort %q, want one containing %q", i, v.abort, st.abort)
				}
			}
		})
	}
}

// wireItem is what a link carries: a frame stamped t, or the sender's
// watermark through t.
type wireItem struct {
	mark bool
	t    uint64
}

// countModel is a ground-truth schedule for the count-termination fuzzer:
// clusters exchanging frames and watermarks over FIFO links. It obeys
// exactly the kernel's contract and nothing else. Before cycle c a
// cluster waits until it has heard each sender's watermark c, and each
// receiver's watermark c-window; it takes the frame stamped c from the
// front of each sender's link queue, ships each receiver whose values
// changed a frame stamped c+1 unless c is the last cycle, and then marks
// c+1 on every link and publishes c+1.
type countModel struct {
	cycles, window uint64
	senders        [][]int // senders[d]: the clusters that ship frames to d
	receivers      [][]int
	link           [][][]wireItem // link[s][d]: s→d, in flight, front first
	heard          [][]uint64     // heard[d][s]: the watermark s→d delivered
	queue          [][][]uint64   // queue[d][s]: frames s→d delivered, not yet taken
	cycle          []uint64       // published progress: the next cycle to execute

	sent, consumed uint64
}

func newCountModel(k int, cycles, window uint64, edges uint16) *countModel {
	m := &countModel{
		cycles: cycles, window: window,
		senders: make([][]int, k), receivers: make([][]int, k),
		link: make([][][]wireItem, k), heard: make([][]uint64, k),
		queue: make([][][]uint64, k), cycle: make([]uint64, k),
	}
	bit := 0
	for s := range k {
		m.link[s] = make([][]wireItem, k)
		m.heard[s] = make([]uint64, k)
		m.queue[s] = make([][]uint64, k)
		for d := range k {
			if d == s {
				continue
			}
			if edges>>(bit%16)&1 != 0 {
				m.senders[d] = append(m.senders[d], s)
				m.receivers[s] = append(m.receivers[s], d)
			}
			bit++
		}
	}
	return m
}

// ready reports whether cluster c may execute its next cycle.
func (m *countModel) ready(c int) bool {
	cyc := m.cycle[c]
	if cyc >= m.cycles {
		return false
	}
	for _, s := range m.senders[c] {
		if m.heard[c][s] < cyc {
			return false
		}
	}
	if cyc > m.window {
		for _, r := range m.receivers[c] {
			if m.heard[c][r] < cyc-m.window {
				return false
			}
		}
	}
	return true
}

// exec executes cluster c's next cycle if it is ready, shipping a frame to
// each receiver whose bit is set in changed. It fails the test the moment
// a cycle runs without a frame stamped for it, or takes a frame for a
// cycle already run.
func (m *countModel) exec(t *testing.T, c int, changed uint) {
	if !m.ready(c) {
		return
	}
	cyc := m.cycle[c]
	for _, s := range m.senders[c] {
		for _, it := range m.link[s][c] {
			if !it.mark && it.t == cyc {
				t.Fatalf("cluster %d ran cycle %d with the frame for it from %d still on the link", c, cyc, s)
			}
		}
		if q := m.queue[c][s]; len(q) > 0 && q[0] <= cyc {
			if q[0] < cyc {
				t.Fatalf("cluster %d at cycle %d took a straggler from %d stamped %d", c, cyc, s, q[0])
			}
			m.queue[c][s] = q[1:]
			m.consumed++
		}
	}
	if cyc+1 < m.cycles {
		for j, r := range m.receivers[c] {
			if changed>>j&1 != 0 {
				m.link[c][r] = append(m.link[c][r], wireItem{t: cyc + 1})
				m.sent++
			}
		}
	}
	m.cycle[c] = cyc + 1
	for d := range m.link[c] {
		if d != c {
			m.link[c][d] = append(m.link[c][d], wireItem{mark: true, t: cyc + 1})
		}
	}
}

// deliver hands the front item of link s→d to d.
func (m *countModel) deliver(s, d int) {
	it := m.link[s][d][0]
	m.link[s][d] = m.link[s][d][1:]
	if it.mark {
		m.heard[d][s] = it.t
	} else {
		m.queue[d][s] = append(m.queue[d][s], it.t)
	}
}

// busyLinks lists the links with something in flight, as s*k+d.
func (m *countModel) busyLinks() []int {
	var busy []int
	for s, row := range m.link {
		for d, q := range row {
			if len(q) > 0 {
				busy = append(busy, s*len(row)+d)
			}
		}
	}
	return busy
}

// leftover names what a run declared over still holds: a frame on a
// link or in a link's queue, or a cluster short of its cycles.
func (m *countModel) leftover() string {
	for c, cyc := range m.cycle {
		if cyc != m.cycles {
			return "cluster short of its cycles"
		}
		for s := range m.link {
			if len(m.queue[c][s]) > 0 {
				return "a frame delivered but not consumed"
			}
			for _, it := range m.link[s][c] {
				if !it.mark {
					return "a frame on a link"
				}
			}
		}
	}
	if m.sent != m.consumed {
		return "sent and consumed counts differ"
	}
	return ""
}

// driveQuiescence runs one schedule: each byte is a step of the model or
// the next read of the progress sample in progress. It fails the test the
// moment a cycle runs without its frames, the watchdog aborts this correct
// run, or the watchdog calls the run done while it still holds a frame.
// It returns how many frames the schedule consumed and whether the run
// ended.
func driveQuiescence(t *testing.T, data []byte) (consumed uint64, done bool) {
	if len(data) < 4 {
		return 0, false
	}
	k := 2 + int(data[0]%3)
	cycles := uint64(data[1] % 9)
	window := 1 + uint64(data[1]/9%3)
	m := newCountModel(k, cycles, window, uint16(data[2])|uint16(data[3])<<8)
	wd := newWatchdog(k, cycles, 0, 0, time.Time{})

	// A sample reads the clusters' published cycles one by one.
	progress := make([]uint64, k)
	next := 0
	read := func() (complete bool) {
		progress[next] = m.cycle[next]
		next = (next + 1) % k
		return next == 0
	}
	judge := func() bool {
		v := wd.step(progress, time.Time{})
		if v.abort != "" {
			t.Fatalf("correct schedule aborted: %q", v.abort)
		}
		if v.done {
			if what := m.leftover(); what != "" {
				t.Fatalf("run declared over with %s: cycles %v of %d, links %v, queues %v",
					what, m.cycle, cycles, m.link, m.queue)
			}
		}
		return v.done
	}

	for _, b := range data[4:] {
		op, arg := int(b&7), uint(b>>3)
		switch op {
		case 0, 1: // one cycle of a cluster; op 1 ships to every receiver
			changed := arg / uint(k)
			if op == 1 {
				changed = ^uint(0)
			}
			m.exec(t, int(arg)%k, changed)
		case 2, 3: // one link delivers its front item
			if busy := m.busyLinks(); len(busy) > 0 {
				l := busy[int(arg)%len(busy)]
				m.deliver(l/k, l%k)
			}
		case 4: // one read of the sample
			if read() && judge() {
				return m.consumed, true
			}
		case 5: // the rest of the sample, uninterrupted
			for !read() {
			}
			if judge() {
				return m.consumed, true
			}
		case 6: // every link delivers all it holds
			for _, l := range m.busyLinks() {
				for len(m.link[l/k][l%k]) > 0 {
					m.deliver(l/k, l%k)
				}
			}
		case 7: // one cycle of every cluster, in turn
			for c := range k {
				m.exec(t, c, arg)
			}
		}
	}
	return m.consumed, false
}

// FuzzQuiescence searches for a schedule on which ending a run by count is
// unsafe: a cycle run without a frame stamped for it, or a run declared
// over with a frame not yet consumed.
func FuzzQuiescence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 3, 0xff, 0xff, 0x01, 0x09, 0x06, 0x07, 0x06, 0x07, 0x05, 0x06, 0x07, 0x05})
	rng := rand.New(rand.NewSource(1))
	for range 4 {
		b := make([]byte, 200)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) { driveQuiescence(t, data) })
}

// TestQuiescenceSchedules drives the fuzz body over seeded random
// schedules on every plain `go test`, and requires that they exercise
// what the body checks: frames consumed and runs ended.
func TestQuiescenceSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var consumed uint64
	var ended int
	for range 400 {
		b := make([]byte, 4+rng.Intn(3000))
		rng.Read(b)
		n, done := driveQuiescence(t, b)
		consumed += n
		if done {
			ended++
		}
	}
	t.Logf("400 schedules: %d frames consumed, %d runs ended", consumed, ended)
	if consumed < 1000 || ended < 200 {
		t.Errorf("schedules too tame: %d frames consumed, %d runs ended", consumed, ended)
	}
}
