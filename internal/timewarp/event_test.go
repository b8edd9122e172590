package timewarp

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/netlist"
)

// refQueue is the naive input queue driveInputQueue holds the real one
// against: an unsorted multiset of events, re-sorted on every read.
type refQueue []event

// sorted returns the events in (T, Src, Seq) order.
func (q refQueue) sorted() refQueue {
	s := append(refQueue(nil), q...)
	sort.Slice(s, func(i, j int) bool {
		a, b := s[i], s[j]
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

// queueNets is how many nets the queue's events write in driveInputQueue.
const queueNets = 8

// driveInputQueue runs one schedule of the kernel's operations on a
// cluster's input queue — file an event for a cycle not yet executed,
// refuse a straggler, consume a cycle — against refQueue. After every step
// the queue holds the reference's events in order and checkLogs is green;
// a cycle writes the nets the reference's events for it write, applied in
// the reference's order, and leaves the rest queued; a straggler is an
// error that leaves the queue untouched; and the same event filed twice
// breaks the order checkLogs checks.
func driveInputQueue(t *testing.T, data []byte) {
	var (
		c    = &cluster{values: make([]bool, queueNets)}
		ref  refQueue
		vals [queueNets]bool
		seq  [4]uint64 // per source, so that no (Src, Seq) repeats
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
		for i, e := range want {
			if c.inq[i] != e {
				t.Fatalf("after %s: queue[%d] = %+v, reference %+v", what, i, c.inq[i], e)
			}
		}
		for n, v := range vals {
			if c.values[n] != v {
				t.Fatalf("after %s: net %d holds %v, reference %v", what, n, c.values[n], v)
			}
		}
	}

	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%16, uint64(data[i+1])
		switch op {
		case 0, 1, 2, 3, 4, 5, 6, 7: // an event for the next cycle or one of the two after it
			src := int32(1 + arg%3)
			seq[src]++
			e := event{T: c.cycle + arg/3%3, Net: netlist.NetID(arg / 9 % queueNets), Src: src, Seq: seq[src], Val: arg&1 == 0}
			if err := c.absorbOne(e); err != nil {
				t.Fatal(err)
			}
			ref = append(ref, e)
			check("insert")
		case 8, 9, 10, 11: // consume the next cycle
			kept := ref[:0]
			for _, e := range ref.sorted() {
				if e.T == c.cycle {
					vals[e.Net] = e.Val
				} else {
					kept = append(kept, e)
				}
			}
			ref = kept
			c.consume(c.cycle)
			c.cycle++
			check("consume")
		case 12, 13: // a straggler: refused, queue untouched
			if c.cycle == 0 {
				continue
			}
			src := int32(1 + arg%3)
			e := event{T: arg % c.cycle, Src: src, Seq: seq[src] + 1}
			if err := c.absorbOne(e); err == nil || !strings.Contains(err.Error(), "straggler") {
				t.Fatalf("event for executed cycle %d at cycle %d: error %v, want a straggler", e.T, c.cycle, err)
			}
			check("refused straggler")
		case 14, 15: // what the transport must never do: the same event twice
			if len(ref) == 0 {
				continue
			}
			if err := c.absorbOne(ref[int(arg)%len(ref)]); err != nil {
				t.Fatal(err)
			}
			if err := c.checkLogs(); err == nil || !strings.Contains(err.Error(), "input queue out of order") {
				t.Fatalf("duplicate event in the queue: checkLogs error %v", err)
			}
			return
		}
	}
}

// FuzzInputQueue searches for a schedule of kernel operations after which a
// cluster's input queue and the naive reference disagree.
func FuzzInputQueue(f *testing.F) {
	f.Add([]byte{0, 0, 8, 0, 12, 0}) // insert, consume, refuse a straggler for it
	f.Add([]byte{0, 30, 1, 31, 0, 3, 8, 0, 8, 0, 4, 0, 13, 1, 14, 2})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		b := make([]byte, 400)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(driveInputQueue)
}

// TestInputQueueOperations walks the queue's operations by hand: arrival
// out of order, across cycles and sources; consumption of one cycle in
// (T, Src, Seq) order, the later ones left queued; a straggler refused.
func TestInputQueueOperations(t *testing.T) {
	c := &cluster{values: make([]bool, 4)}
	for _, e := range []event{
		{T: 0, Net: 1, Src: 2, Seq: 2, Val: true}, {T: 1, Net: 2, Src: 1, Seq: 2, Val: true},
		{T: 0, Net: 1, Src: 2, Seq: 1}, {T: 0, Net: 3, Src: 1, Seq: 1, Val: true},
	} {
		if err := c.absorbOne(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.checkLogs(); err != nil {
		t.Fatal(err)
	}
	c.consume(0)
	c.cycle = 1
	// Net 1 is written twice by source 2, in sequence order: the later
	// write stands.
	if want := []bool{false, true, false, true}; !slices.Equal(c.values, want) {
		t.Fatalf("cycle 0 wrote %v, want %v", c.values, want)
	}
	if len(c.inq) != 1 || c.inq[0].T != 1 {
		t.Fatalf("after cycle 0 the queue holds %+v, want cycle 1's event alone", c.inq)
	}
	err := c.absorbOne(event{T: 0, Src: 1, Seq: 3})
	if err == nil || !strings.Contains(err.Error(), "invariant violated: straggler") {
		t.Errorf("event for cycle 0 at cycle 1: error %v, want a straggler", err)
	}
	if len(c.inq) != 1 {
		t.Errorf("the refused straggler changed the queue: %+v", c.inq)
	}
}
