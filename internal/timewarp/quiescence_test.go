package timewarp

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

// qStep is one sample fed to the tracker and what it must conclude.
type qStep struct {
	at       time.Duration // sample time, relative to the tracker's start
	sent     uint64
	absorbed uint64
	progress []uint64
	// partial marks a sample taken before every cluster reported.
	partial bool

	frozen    bool
	terminate bool
	abort     string // substring of the diagnosis; "" = no abort
}

// TestQuiescenceDecisions pins the freeze → termination → abort rules on
// hand-written sample sequences: the decision-only half of what
// the watcher, probe and distributed tests used to check through a whole
// run.
func TestQuiescenceDecisions(t *testing.T) {
	const cycles = 10
	ms := time.Millisecond
	cases := []struct {
		name           string
		stall, hardCap time.Duration
		steps          []qStep
	}{
		{
			name: "frozen only on an identical, fully absorbed pair",
			steps: []qStep{
				{sent: 3, absorbed: 3, progress: []uint64{5, 7}},
				{sent: 3, absorbed: 3, progress: []uint64{5, 7}, frozen: true},
				// A cluster moved: not frozen.
				{sent: 3, absorbed: 3, progress: []uint64{6, 7}},
				// Identical, but a message is unabsorbed: not frozen.
				{sent: 4, absorbed: 3, progress: []uint64{6, 7}},
				{sent: 4, absorbed: 3, progress: []uint64{6, 7}},
				// Absorbed now, but that is a change against the last sample.
				{sent: 4, absorbed: 4, progress: []uint64{6, 7}},
				{sent: 4, absorbed: 4, progress: []uint64{6, 7}, frozen: true},
				{sent: 4, absorbed: 4, progress: []uint64{6, 7}, frozen: true},
			},
		},
		{
			name: "termination needs two all-done frozen samples in a row",
			steps: []qStep{
				{sent: 9, absorbed: 9, progress: []uint64{cycles, cycles}},
				{sent: 9, absorbed: 9, progress: []uint64{cycles, cycles}, frozen: true},
				// A message moves: the streak restarts.
				{sent: 10, absorbed: 9, progress: []uint64{cycles, cycles}},
				{sent: 10, absorbed: 10, progress: []uint64{cycles, cycles}},
				{sent: 10, absorbed: 10, progress: []uint64{cycles, cycles}, frozen: true},
				{sent: 10, absorbed: 10, progress: []uint64{cycles, cycles}, frozen: true, terminate: true},
			},
		},
		{
			name: "unreported clusters are never frozen",
			steps: []qStep{
				{progress: []uint64{4, 0}, partial: true},
				{progress: []uint64{4, 0}, partial: true},
				// The first complete sample differs from the partial one.
				{progress: []uint64{4, 0}},
				{progress: []uint64{4, 2}},
				{progress: []uint64{4, 2}, frozen: true},
			},
		},
		{
			name:  "stall: quiet for longer than the timeout with work left",
			stall: 250 * ms,
			steps: []qStep{
				// The wedged-run shape: messages sent, never absorbed.
				{at: 0, sent: 5, progress: []uint64{3, 3}},
				{at: 200 * ms, sent: 5, progress: []uint64{3, 3}},
				// Activity restarts the clock.
				{at: 240 * ms, sent: 6, progress: []uint64{3, 3}},
				{at: 480 * ms, sent: 6, progress: []uint64{3, 3}},
				{at: 500 * ms, sent: 6, progress: []uint64{3, 3}, abort: "stalled"},
			},
		},
		{
			name:  "no stall abort once everything is done and absorbed",
			stall: 250 * ms,
			steps: []qStep{
				{at: 0, sent: 5, absorbed: 5, progress: []uint64{cycles, cycles}},
				{at: 900 * ms, sent: 5, absorbed: 5, progress: []uint64{cycles, cycles}, frozen: true},
			},
		},
		{
			name: "timeouts are off by default",
			steps: []qStep{
				{at: 0, sent: 5, progress: []uint64{3, 3}},
				{at: time.Hour, sent: 5, progress: []uint64{3, 3}},
			},
		},
		{
			name:    "livelock: the hard cap fires while activity continues",
			stall:   250 * ms,
			hardCap: time.Second,
			steps: []qStep{
				{at: 0, sent: 1, progress: []uint64{3, 3}},
				{at: 400 * ms, sent: 2, progress: []uint64{3, 2}},
				{at: 800 * ms, sent: 3, progress: []uint64{3, 3}},
				{at: 1200 * ms, sent: 4, progress: []uint64{3, 2}, abort: "hard cap"},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t0 := time.Unix(1000, 0)
			q := newQuiescence(2, cycles, tc.stall, tc.hardCap, t0)
			for i, st := range tc.steps {
				v := q.step(sample{
					sent: st.sent, absorbed: st.absorbed, progress: st.progress,
					complete: !st.partial, now: t0.Add(st.at),
				})
				if v.frozen != st.frozen || v.terminate != st.terminate {
					t.Fatalf("step %d: got frozen=%v terminate=%v, want frozen=%v terminate=%v",
						i, v.frozen, v.terminate, st.frozen, st.terminate)
				}
				if (st.abort == "") != (v.abort == "") || !strings.Contains(v.abort, st.abort) {
					t.Fatalf("step %d: abort %q, want one containing %q", i, v.abort, st.abort)
				}
			}
		})
	}
}

// twModel is a ground-truth schedule for the tracker fuzzer: clusters with
// a published cycle, spread over processes with their own message
// counters, exchanging messages. It obeys exactly the kernel's contract
// with the tracker and nothing else: sent is counted at send time, and a
// message counts as absorbed only some time after its receiver took it. A
// cross-process frame is such a message on its way, with no count of its
// own. Every counter read of a sample is its own step, so the schedule
// interleaves them with the run at will — the non-atomic reads of Run's
// watcher and the skewed worker reports of the coordinator are the same
// thing here.
type twModel struct {
	cycles uint64
	proc   []int    // cluster → process
	cycle  []uint64 // the published progress
	inbox  []int    // messages delivered, not yet taken
	owed   []uint64 // taken, not yet counted absorbed
	wire   []int    // destination of each frame on its way

	sent, absorbed []uint64 // per process
}

func newTWModel(k, procs int, cycles uint64) *twModel {
	m := &twModel{
		cycles: cycles, proc: make([]int, k), cycle: make([]uint64, k),
		inbox: make([]int, k), owed: make([]uint64, k),
		sent: make([]uint64, procs), absorbed: make([]uint64, procs),
	}
	for c := range m.proc {
		m.proc[c] = c * procs / k
	}
	return m
}

// advance executes one cycle of cluster c, optionally sending a message to
// cluster dst.
func (m *twModel) advance(c, dst int, send bool) {
	if m.cycle[c] >= m.cycles {
		return
	}
	if send && dst != c {
		p := m.proc[c]
		m.sent[p]++
		if m.proc[dst] == p {
			m.inbox[dst]++
		} else {
			m.wire = append(m.wire, dst)
		}
	}
	m.cycle[c]++
}

// arrive lands wire frame i in its destination process.
func (m *twModel) arrive(i int) {
	m.inbox[m.wire[i]]++
	m.wire = append(m.wire[:i], m.wire[i+1:]...)
}

// absorb makes cluster c take its inbox; the messages count as absorbed
// only at the next credit.
func (m *twModel) absorb(c int) {
	m.owed[c] += uint64(m.inbox[c])
	m.inbox[c] = 0
}

func (m *twModel) credit(c int) {
	m.absorbed[m.proc[c]] += m.owed[c]
	m.owed[c] = 0
}

func (m *twModel) idle() bool {
	for c := range m.cycle {
		if m.cycle[c] < m.cycles || m.inbox[c] != 0 || m.owed[c] != 0 {
			return false
		}
	}
	return len(m.wire) == 0
}

// driveQuiescence runs one schedule: each byte is either a step of the
// model or the next counter read of the sample in progress. It fails the
// test the moment the tracker aborts this correct run or terminates a run
// that is not over. It returns how many samples were frozen and whether
// the run terminated.
func driveQuiescence(t *testing.T, data []byte) (freezes int, terminated bool) {
	if len(data) < 3 {
		return 0, false
	}
	k := 2 + int(data[0]%3)
	procs := 1 + int(data[1])%k
	cycles := 2 + uint64(data[2]%6)
	m := newTWModel(k, procs, cycles)
	q := newQuiescence(k, cycles, 0, 0, time.Time{})

	// A sample is 2 reads per process (sent, then absorbed and progress),
	// taken process by process.
	var (
		s        = sample{progress: make([]uint64, k), complete: true}
		readStep int
	)
	read := func() (done bool) {
		p := readStep / 2
		if readStep%2 == 0 {
			if p == 0 {
				s.sent, s.absorbed = 0, 0
			}
			s.sent += m.sent[p]
		} else {
			s.absorbed += m.absorbed[p]
			for c := range m.cycle {
				if m.proc[c] == p {
					s.progress[c] = m.cycle[c]
				}
			}
		}
		readStep = (readStep + 1) % (2 * procs)
		return readStep == 0
	}

	// judge hands the completed sample to the tracker and checks the
	// verdict; done reports termination.
	judge := func() (done bool) {
		v := q.step(s)
		if v.abort != "" {
			t.Fatalf("correct schedule aborted: %q", v.abort)
		}
		if v.terminate && !m.idle() {
			t.Fatalf("terminated a live run: cycles %v of %d, wire %v, inbox %v, owed %v",
				m.cycle, cycles, m.wire, m.inbox, m.owed)
		}
		if v.frozen {
			freezes++
		}
		return v.terminate
	}
	finish := func() bool {
		for !read() {
		}
		return judge()
	}

	for _, b := range data[3:] {
		op, arg := int(b&7), int(b>>3)
		switch op {
		case 0, 1:
			m.advance(arg%k, (arg/k)%k, op == 1)
		case 2:
			if len(m.wire) > 0 {
				m.arrive(arg % len(m.wire))
			}
		case 3:
			m.absorb(arg % k)
			if arg&16 != 0 {
				m.credit(arg % k)
			}
		case 4:
			m.credit(arg % k)
		case 5: // one counter read
			if read() && judge() {
				return freezes, true
			}
		case 6: // the rest of this sample, uninterrupted
			if finish() {
				return freezes, true
			}
		case 7: // ... and a whole second one: frozen if the run is quiet
			if finish() || finish() {
				return freezes, true
			}
		}
	}
	return freezes, false
}

// FuzzQuiescence searches for a schedule on which the tracker is unsafe.
func FuzzQuiescence(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 1, 3, 0x09, 0x0a, 0x06, 0x07, 0x06, 0x07, 0x03, 0x04, 0x05, 0x06, 0x07})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		b := make([]byte, 200)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) { driveQuiescence(t, data) })
}

// TestQuiescenceSchedules drives the fuzz body over seeded random
// schedules on every plain `go test`, and requires that they exercise
// what the body checks: frozen samples and terminations.
func TestQuiescenceSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var freezes, terminations int
	for i := 0; i < 400; i++ {
		b := make([]byte, 3+rng.Intn(3000))
		rng.Read(b)
		f, done := driveQuiescence(t, b)
		freezes += f
		if done {
			terminations++
		}
	}
	t.Logf("400 schedules: %d frozen samples, %d terminations", freezes, terminations)
	if freezes < 400 || terminations < 40 {
		t.Errorf("schedules too tame: %d frozen samples, %d terminations", freezes, terminations)
	}
}
