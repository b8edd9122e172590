package timewarp

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refQueue is the naive input queue driveInputQueue holds the real one
// against: an unsorted multiset of (event, consumed) pairs, re-sorted on
// every read, with every question answered by a linear scan.
type refQueue []refEntry

type refEntry struct {
	e        event
	consumed bool
}

// sorted returns the entries in (T, Src, Seq) order.
func (q refQueue) sorted() refQueue {
	s := append(refQueue(nil), q...)
	sort.Slice(s, func(i, j int) bool {
		a, b := s[i].e, s[j].e
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Seq < b.Seq
	})
	return s
}

// unconsume is the reference's rollback to cycle t; it returns how many
// consumed events became pending again.
func (q refQueue) unconsume(t uint64) (n int) {
	for i := range q {
		if q[i].consumed && q[i].e.T >= t {
			q[i].consumed = false
			n++
		}
	}
	return n
}

// driveInputQueue runs one schedule of the kernel's operations on a
// cluster's input queue — insert a positive, absorb an anti-message, consume
// a cycle, roll back, fossil-collect — against refQueue. Inserts and
// anti-messages accumulate in one absorbState, like the messages of one
// delivery, and the rollback they ask for is carried out before the next
// operation of another kind. After every step the queue holds the
// reference's events in order and checkLogs is green; whenever no rollback
// is owed the cursor stands right after the reference's consumed events, an
// anti-message gets the reference's verdict (annihilated pending, or
// consumed and a reason to roll back), and a cycle consumes the reference's
// events in the reference's order; every delivery ends in the reference's
// rollback or in none; and an anti-message without a positive is an error,
// not a panic.
func driveInputQueue(t *testing.T, data []byte) {
	var (
		c      = &cluster{}
		ref    refQueue
		seq    [4]uint64 // per source, so that no (Src, Seq) repeats
		fossil uint64    // cycles; nothing arrives or rolls back below it
		st     = absorbState{rollTo: math.MaxUint64}
		// The reference's own account of the delivery being absorbed.
		needRoll bool
		rollTo   uint64 = math.MaxUint64
	)
	check := func(what string) {
		t.Helper()
		if err := c.checkLogs(); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
		want := ref.sorted()
		if len(c.inq) != len(want) {
			t.Fatalf("after %s: queue holds %d events, reference %d", what, len(c.inq), len(want))
		}
		consumed := 0
		for i, r := range want {
			if c.inq[i] != r.e {
				t.Fatalf("after %s: queue[%d] = %+v, reference %+v", what, i, c.inq[i], r.e)
			}
			if r.consumed {
				consumed++
			}
		}
		// A straggler that lands before the cursor stays there until the
		// rollback it is owed; only then does the cursor count the consumed.
		if !needRoll && c.next != consumed {
			t.Fatalf("after %s: cursor at %d, reference has consumed %d events", what, c.next, consumed)
		}
	}
	// resolve ends the delivery: one rollback to its earliest straggler.
	resolve := func() {
		t.Helper()
		if st.needRoll != needRoll || st.rollTo != rollTo {
			t.Fatalf("delivery: rollback %v to cycle %d, reference %v to %d", st.needRoll, st.rollTo, needRoll, rollTo)
		}
		if needRoll {
			c.rewind(rollTo)
			ref.unconsume(rollTo)
			c.cycle = rollTo
		}
		st = absorbState{rollTo: math.MaxUint64}
		needRoll, rollTo = false, math.MaxUint64
		check("resolve")
	}
	straggler := func(e event) {
		if e.T < st.lvt && e.T < rollTo {
			needRoll, rollTo = true, e.T
		}
	}

	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%16, uint64(data[i+1])
		st.lvt = c.cycle
		switch op {
		case 0, 1, 2, 3, 4, 5: // a positive up to two cycles ahead: from the LVT on, or (4, 5) from the fossil line on
			from := c.cycle
			if op >= 4 {
				from = fossil
			}
			src := int32(1 + arg%3)
			seq[src]++
			e := event{T: from + arg/3%(c.cycle-from+2), Src: src, Seq: seq[src], Val: arg&1 == 0}
			if err := c.absorbOne(e, &st); err != nil {
				t.Fatal(err)
			}
			ref = append(ref, refEntry{e: e})
			straggler(e)
			check("insert")
		case 6, 7: // the anti-message of an event the queue holds
			if len(ref) == 0 {
				continue
			}
			j := int(arg) % len(ref)
			r, next := ref[j], c.next
			anti := r.e
			anti.Anti = true
			if err := c.absorbOne(anti, &st); err != nil {
				t.Fatal(err)
			}
			ref = append(ref[:j], ref[j+1:]...)
			if !needRoll && (c.next == next-1) != r.consumed {
				t.Fatalf("anti-message for %+v: cursor %d -> %d, reference had consumed the positive: %v", r.e, next, c.next, r.consumed)
			}
			if r.consumed {
				straggler(anti)
			}
			check("anti-message")
		case 8, 9, 10, 11: // consume the next cycle
			resolve()
			var want []event
			for _, r := range ref.sorted() {
				if !r.consumed && r.e.T <= c.cycle {
					want = append(want, r.e)
				}
			}
			lo, err := c.consume(c.cycle)
			if err != nil {
				t.Fatal(err)
			}
			if n := c.next - lo; n != len(want) {
				t.Fatalf("cycle %d consumed %d events, reference %d", c.cycle, n, len(want))
			}
			for k, e := range want {
				if c.inq[lo+k] != e {
					t.Fatalf("cycle %d: event %d consumed is %+v, reference %+v", c.cycle, k, c.inq[lo+k], e)
				}
			}
			c.cycle++
			for k := range ref {
				ref[k].consumed = ref[k].consumed || ref[k].e.T < c.cycle
			}
			check("consume")
		case 12: // a rollback somebody else asked for (a benchmark's)
			resolve()
			tc := fossil + arg%(c.cycle-fossil+1)
			if got, want := c.rewind(tc), ref.unconsume(tc); got != want {
				t.Fatalf("rollback to cycle %d passed over %d events, reference %d", tc, got, want)
			}
			c.cycle = tc
			check("rollback")
		case 13: // fossil-collect up to a line at or below the LVT
			resolve()
			fossil += arg % (c.cycle - fossil + 1)
			c.pruneLogs(fossil)
			kept := ref[:0]
			for _, r := range ref {
				if r.e.T >= fossil {
					kept = append(kept, r)
				}
			}
			ref = kept
			check("prune")
		case 14, 15: // what the transport must never do
			if op == 14 || arg%4 != 3 || len(ref) == 0 {
				// An anti-message nothing was sent for: refused, queue untouched.
				src := int32(1 + arg%3)
				bogus := event{T: fossil + arg%4, Src: src, Seq: seq[src] + 1 + arg, Anti: true}
				if err := c.absorbOne(bogus, &st); err == nil || !strings.Contains(err.Error(), "unknown event") {
					t.Fatalf("anti-message without a positive: error %v", err)
				}
				check("refused anti-message")
				continue
			}
			// The same positive twice: the order is no longer strict, and
			// checkLogs says so. Nothing is promised after that.
			if err := c.absorbOne(ref[int(arg)%len(ref)].e, &st); err != nil {
				t.Fatal(err)
			}
			if err := c.checkLogs(); err == nil || !strings.Contains(err.Error(), "input queue out of order") {
				t.Fatalf("duplicate event in the queue: checkLogs error %v", err)
			}
			return
		}
	}
	resolve()
}

// FuzzInputQueue searches for a schedule of kernel operations after which a
// cluster's input queue and the naive reference disagree.
func FuzzInputQueue(f *testing.F) {
	f.Add([]byte{0, 0, 8, 0, 6, 0}) // insert, consume, cancel the consumed event
	f.Add([]byte{0, 30, 1, 31, 8, 0, 8, 0, 4, 0, 6, 2, 13, 1, 14, 2, 15, 3})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		b := make([]byte, 400)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(driveInputQueue)
}

// TestInputQueueOperations walks the queue's five operations by hand:
// arrival out of order, consumption in (T, Src, Seq) order, a straggler
// landing among the consumed, an anti-message for a pending and for a
// consumed event, the rollback and the prune.
func TestInputQueueOperations(t *testing.T) {
	c := &cluster{}
	absorb := func(lvt uint64, evs ...event) absorbState {
		t.Helper()
		st := absorbState{lvt: lvt, rollTo: math.MaxUint64}
		for _, e := range evs {
			if err := c.absorbOne(e, &st); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.checkLogs(); err != nil {
			t.Fatal(err)
		}
		return st
	}
	keys := func(evs []event) (s [][3]uint64) {
		for _, e := range evs {
			s = append(s, [3]uint64{e.T, uint64(e.Src), e.Seq})
		}
		return s
	}
	expect := func(what string, got []event, want ...[3]uint64) {
		t.Helper()
		g := keys(got)
		if len(g) != len(want) {
			t.Fatalf("%s: %v, want %v", what, g, want)
		}
		for i := range want {
			if g[i] != want[i] {
				t.Fatalf("%s: %v, want %v", what, g, want)
			}
		}
	}

	// Cycle 0's events arrive out of order, cycle 1's among them.
	st := absorb(0,
		event{T: 0, Src: 2, Seq: 2}, event{T: 1, Src: 1, Seq: 2}, event{T: 0, Src: 2, Seq: 1}, event{T: 0, Src: 1, Seq: 1})
	if st.needRoll {
		t.Fatalf("nothing executed yet, rollback to %d asked for", st.rollTo)
	}
	lo, err := c.consume(0)
	if err != nil {
		t.Fatal(err)
	}
	expect("cycle 0 consumes", c.inq[lo:c.next], [3]uint64{0, 1, 1}, [3]uint64{0, 2, 1}, [3]uint64{0, 2, 2})
	expect("pending", c.inq[c.next:], [3]uint64{1, 1, 2})
	if lo, _ = c.consume(1); c.next-lo != 1 {
		t.Fatalf("cycle 1 consumed %d events, want 1", c.next-lo)
	}

	// A straggler for cycle 0 lands among the consumed; the anti-message of
	// a pending event annihilates it and asks for nothing.
	st = absorb(2, event{T: 2, Src: 1, Seq: 3}, event{T: 0, Src: 1, Seq: 4}, event{T: 2, Src: 1, Seq: 3, Anti: true})
	if !st.needRoll || st.rollTo != 0 || st.trigger.Seq != 4 {
		t.Fatalf("straggler for cycle 0: rollback %v to %d by %+v", st.needRoll, st.rollTo, st.trigger)
	}
	if c.next != 5 || len(c.inq) != 5 {
		t.Fatalf("cursor %d of %d, want it moved up past the straggler: 5 of 5", c.next, len(c.inq))
	}
	if n := c.rewind(0); n != 5 || c.next != 0 {
		t.Fatalf("rollback to cycle 0 passed over %d events to %d, want 5 to 0", n, c.next)
	}
	lo, _ = c.consume(0)
	expect("cycle 0 replays", c.inq[lo:c.next], [3]uint64{0, 1, 1}, [3]uint64{0, 1, 4}, [3]uint64{0, 2, 1}, [3]uint64{0, 2, 2})

	// The anti-message of a consumed event deletes it and rolls back to it.
	st = absorb(1, event{T: 0, Src: 1, Seq: 1, Anti: true})
	if !st.needRoll || st.rollTo != 0 || c.next != 3 {
		t.Fatalf("anti-message for a consumed event: rollback %v to %d, cursor %d; want true, 0, 3", st.needRoll, st.rollTo, c.next)
	}
	c.rewind(0)
	c.consume(0)
	c.consume(1)
	c.pruneLogs(1)
	expect("after fossil collection below cycle 1", c.inq, [3]uint64{1, 1, 2})
	if c.next != 1 {
		t.Fatalf("cursor %d after the prune, want 1", c.next)
	}
	var none absorbState
	if err := c.absorbOne(event{T: 0, Src: 1, Seq: 1, Anti: true}, &none); err == nil {
		t.Error("a second anti-message for the same event was accepted")
	}
}
