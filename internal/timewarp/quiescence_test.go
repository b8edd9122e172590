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
	// partial marks a sample taken before every cluster reported;
	// undrained one whose era tallies do not balance.
	partial   bool
	undrained bool
	wire      uint64

	frozen    bool
	gvt       uint64
	advanced  bool
	terminate bool
	abort     string // substring of the diagnosis; "" = no abort
}

// TestQuiescenceDecisions pins the freeze → GVT → termination → abort
// rules on hand-written sample sequences: the decision-only half of what
// the watcher, probe and distributed tests used to check through a whole
// run.
func TestQuiescenceDecisions(t *testing.T) {
	const cycles = 10
	ms := time.Millisecond
	cases := []struct {
		name           string
		stall, hardCap time.Duration
		steps          []qStep
		wantViolated   string
	}{
		{
			name: "gvt advances only on a frozen drained pair",
			steps: []qStep{
				{sent: 3, absorbed: 3, progress: []uint64{5, 7}},
				{sent: 3, absorbed: 3, progress: []uint64{5, 7}, frozen: true, gvt: 5, advanced: true},
				// A cluster moved: not frozen, GVT holds.
				{sent: 3, absorbed: 3, progress: []uint64{6, 7}, gvt: 5},
				// Identical, but a message is unabsorbed: not frozen.
				{sent: 4, absorbed: 3, progress: []uint64{6, 7}, gvt: 5},
				{sent: 4, absorbed: 3, progress: []uint64{6, 7}, gvt: 5},
				// Absorbed now, but that is a change against the last sample.
				{sent: 4, absorbed: 4, progress: []uint64{6, 7}, gvt: 5},
				{sent: 4, absorbed: 4, progress: []uint64{6, 7}, frozen: true, gvt: 6, advanced: true},
				// Wire traffic alone breaks the freeze.
				{sent: 4, absorbed: 4, progress: []uint64{6, 7}, wire: 2, gvt: 6},
				// Frozen again at the same minimum: nothing to advance.
				{sent: 4, absorbed: 4, progress: []uint64{6, 7}, wire: 2, frozen: true, gvt: 6},
			},
		},
		{
			name: "gvt never regresses and the regression is reported",
			steps: []qStep{
				{progress: []uint64{5, 7}},
				{progress: []uint64{5, 7}, frozen: true, gvt: 5, advanced: true},
				{progress: []uint64{3, 7}, gvt: 5},
				{progress: []uint64{3, 7}, frozen: true, gvt: 5},
			},
			wantViolated: "GVT regression: quiescent minimum 3 below established GVT 5",
		},
		{
			name: "termination needs two all-done frozen samples in a row",
			steps: []qStep{
				{sent: 9, absorbed: 9, progress: []uint64{cycles, cycles}},
				{sent: 9, absorbed: 9, progress: []uint64{cycles, cycles}, frozen: true, gvt: cycles, advanced: true},
				// A straggler rolls one cluster back: the streak restarts.
				{sent: 10, absorbed: 10, progress: []uint64{cycles, 8}, gvt: cycles},
				{sent: 10, absorbed: 10, progress: []uint64{cycles, cycles}, gvt: cycles},
				{sent: 10, absorbed: 10, progress: []uint64{cycles, cycles}, frozen: true, gvt: cycles},
				{sent: 10, absorbed: 10, progress: []uint64{cycles, cycles}, frozen: true, gvt: cycles, terminate: true},
			},
		},
		{
			name: "frozen but undrained is a lost frame",
			steps: []qStep{
				{sent: 2, absorbed: 2, progress: []uint64{4, 4}, undrained: true},
				{sent: 2, absorbed: 2, progress: []uint64{4, 4}, undrained: true, frozen: true,
					abort: "wire frame lost"},
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
				{progress: []uint64{4, 2}, frozen: true, gvt: 2, advanced: true},
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
				{at: 900 * ms, sent: 5, absorbed: 5, progress: []uint64{cycles, cycles}, frozen: true, gvt: cycles, advanced: true},
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
					complete: !st.partial, drained: !st.undrained, wire: st.wire,
					now: t0.Add(st.at),
				})
				if v.frozen != st.frozen || v.gvt != st.gvt || v.advanced != st.advanced || v.terminate != st.terminate {
					t.Fatalf("step %d: got frozen=%v gvt=%d advanced=%v terminate=%v, want frozen=%v gvt=%d advanced=%v terminate=%v",
						i, v.frozen, v.gvt, v.advanced, v.terminate, st.frozen, st.gvt, st.advanced, st.terminate)
				}
				if (st.abort == "") != (v.abort == "") || !strings.Contains(v.abort, st.abort) {
					t.Fatalf("step %d: abort %q, want one containing %q", i, v.abort, st.abort)
				}
			}
			switch {
			case tc.wantViolated == "" && len(q.violations) != 0:
				t.Fatalf("unexpected invariant violations: %v", q.violations)
			case tc.wantViolated != "" && (len(q.violations) != 1 || q.violations[0] != tc.wantViolated):
				t.Fatalf("violations %v, want [%s]", q.violations, tc.wantViolated)
			}
		})
	}
}

// twModel is a ground-truth Time Warp schedule for the tracker fuzzer:
// clusters with a local virtual time, spread over processes with their
// own message counters, exchanging timestamped messages that roll the
// receiver back. It obeys exactly the kernel's contract with the tracker
// and nothing else: a message is stamped at or above its sender's LVT,
// sent is counted at send time, a rollback lowers progress before the
// message counts as absorbed, and cross-process frames carry the colour
// of the sender's last cut. Every counter read of a sample is its own
// step, so the schedule interleaves them with the run at will — the
// non-atomic reads of Run's watcher and the skewed worker reports of the
// coordinator are the same thing here.
type twModel struct {
	cycles uint64
	proc   []int    // cluster → process
	lvt    []uint64 // also the published progress
	inbox  [][]uint64
	owed   []uint64 // absorbed (rollback applied), not yet counted
	wire   []modelFrame

	sent, absorbed []uint64 // per process
	era            []uint64 // per process: colour of outgoing frames
	wireSent       []map[uint64]uint64
	wireRecv       []map[uint64]uint64
}

type modelFrame struct {
	dst int
	ts  uint64
	era uint64
}

func newTWModel(k, procs int, cycles uint64) *twModel {
	m := &twModel{
		cycles: cycles, proc: make([]int, k), lvt: make([]uint64, k),
		inbox: make([][]uint64, k), owed: make([]uint64, k),
		sent: make([]uint64, procs), absorbed: make([]uint64, procs), era: make([]uint64, procs),
	}
	for c := range m.proc {
		m.proc[c] = c * procs / k
	}
	for p := 0; p < procs; p++ {
		m.wireSent = append(m.wireSent, map[uint64]uint64{})
		m.wireRecv = append(m.wireRecv, map[uint64]uint64{})
	}
	return m
}

// advance executes one cycle of cluster c, optionally sending a message
// stamped ahead cycles past its LVT to cluster dst.
func (m *twModel) advance(c, dst int, send bool, ahead uint64) {
	if m.lvt[c] >= m.cycles {
		return
	}
	if send && dst != c {
		p := m.proc[c]
		m.sent[p]++
		ts := m.lvt[c] + ahead
		if m.proc[dst] == p {
			m.inbox[dst] = append(m.inbox[dst], ts)
		} else {
			m.wire = append(m.wire, modelFrame{dst: dst, ts: ts, era: m.era[p]})
			m.wireSent[p][m.era[p]]++
		}
	}
	m.lvt[c]++
}

// arrive lands wire frame i in its destination process.
func (m *twModel) arrive(i int) {
	f := m.wire[i]
	m.wire = append(m.wire[:i], m.wire[i+1:]...)
	m.wireRecv[m.proc[f.dst]][f.era]++
	m.inbox[f.dst] = append(m.inbox[f.dst], f.ts)
}

// absorb makes cluster c take its inbox, rolling back to the earliest
// straggler; the messages count as absorbed only at the next credit.
func (m *twModel) absorb(c int) {
	for _, ts := range m.inbox[c] {
		if ts < m.lvt[c] {
			m.lvt[c] = ts
		}
	}
	m.owed[c] += uint64(len(m.inbox[c]))
	m.inbox[c] = m.inbox[c][:0]
}

func (m *twModel) credit(c int) {
	m.absorbed[m.proc[c]] += m.owed[c]
	m.owed[c] = 0
}

// trueMin is the real GVT: no cluster and no undelivered message is below it.
func (m *twModel) trueMin() uint64 {
	lo := m.lvt[0]
	for _, v := range m.lvt {
		lo = min(lo, v)
	}
	for _, f := range m.wire {
		lo = min(lo, f.ts)
	}
	for _, box := range m.inbox {
		for _, ts := range box {
			lo = min(lo, ts)
		}
	}
	return lo
}

func (m *twModel) idle() bool {
	for c := range m.lvt {
		if m.lvt[c] < m.cycles || len(m.inbox[c]) != 0 || m.owed[c] != 0 {
			return false
		}
	}
	return len(m.wire) == 0
}

// driveQuiescence runs one schedule: each byte is either a step of the
// model or the next counter read of the sample in progress. It fails the
// test the moment the tracker's GVT regresses, overtakes the true minimum,
// reports an invariant violation or abort on this correct run, or
// terminates a run that is not over. It returns how often GVT advanced
// and whether the run terminated.
func driveQuiescence(t *testing.T, data []byte) (advances int, terminated bool) {
	if len(data) < 3 {
		return 0, false
	}
	k := 2 + int(data[0]%3)
	procs := 1 + int(data[1])%k
	cycles := 2 + uint64(data[2]%6)
	m := newTWModel(k, procs, cycles)
	q := newQuiescence(k, cycles, 0, 0, time.Time{})
	ledger := eraLedger{sent: map[uint64]uint64{}, recv: map[uint64]uint64{}}

	// A sample is 3 reads per process (cut + counters, progress, wire
	// tallies), taken process by process.
	var (
		s        = sample{progress: make([]uint64, k), complete: true}
		round    uint64
		readStep int
		lastGVT  uint64
	)
	read := func() (done bool) {
		p, phase := readStep/3, readStep%3
		switch phase {
		case 0:
			if p == 0 {
				round++
				s.sent, s.absorbed = 0, 0
			}
			m.era[p] = round
			s.sent += m.sent[p]
		case 1:
			s.absorbed += m.absorbed[p]
			for c := range m.lvt {
				if m.proc[c] == p {
					s.progress[c] = m.lvt[c]
				}
			}
		case 2:
			var r distReport
			for era, n := range m.wireSent[p] {
				r.WireSent = append(r.WireSent, eraCount{Era: era, Count: n})
				delete(m.wireSent[p], era)
			}
			for era, n := range m.wireRecv[p] {
				r.WireRecv = append(r.WireRecv, eraCount{Era: era, Count: n})
				delete(m.wireRecv[p], era)
			}
			ledger.fold(&r)
		}
		readStep = (readStep + 1) % (3 * procs)
		return readStep == 0
	}

	// judge hands the completed sample to the tracker and checks the
	// verdict; done reports termination.
	judge := func() (done bool) {
		_, s.drained = ledger.inflight(round)
		s.wire = ledger.frames
		v := q.step(s)
		truth := m.trueMin()
		if v.gvt < lastGVT {
			t.Fatalf("GVT regressed %d → %d", lastGVT, v.gvt)
		}
		if v.gvt > truth {
			t.Fatalf("GVT %d overtook the true minimum %d (lvt %v, wire %v, inbox %v)",
				v.gvt, truth, m.lvt, m.wire, m.inbox)
		}
		if len(q.violations) != 0 || v.abort != "" {
			t.Fatalf("correct schedule flagged: violations %v, abort %q", q.violations, v.abort)
		}
		if v.terminate && (!m.idle() || v.gvt != cycles) {
			t.Fatalf("terminated a live run: gvt %d of %d, lvt %v, wire %v, inbox %v, owed %v",
				v.gvt, cycles, m.lvt, m.wire, m.inbox, m.owed)
		}
		if v.advanced {
			advances++
		}
		lastGVT = v.gvt
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
			m.advance(arg%k, (arg/k)%k, op == 1, uint64(arg>>3))
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
				return advances, true
			}
		case 6: // the rest of this sample, uninterrupted
			if finish() {
				return advances, true
			}
		case 7: // ... and a whole second one: frozen if the run is quiet
			if finish() || finish() {
				return advances, true
			}
		}
	}
	return advances, false
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
// what the body checks: GVT advances and terminations.
func TestQuiescenceSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var advances, terminations int
	for i := 0; i < 400; i++ {
		b := make([]byte, 3+rng.Intn(3000))
		rng.Read(b)
		a, done := driveQuiescence(t, b)
		advances += a
		if done {
			terminations++
		}
	}
	t.Logf("400 schedules: %d GVT advances, %d terminations", advances, terminations)
	if advances < 400 || terminations < 40 {
		t.Errorf("schedules too tame: %d GVT advances, %d terminations", advances, terminations)
	}
}
