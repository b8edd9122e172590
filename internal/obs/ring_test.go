package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestRingSingleWriterWraparound pins the overwrite order: with capacity
// 16 and 100 pushes, the retained window is exactly pushes 84..99 in
// push order.
func TestRingSingleWriterWraparound(t *testing.T) {
	o := New(Options{TraceCapacity: 16})
	for i := 0; i < 100; i++ {
		o.Count(0, "seq", float64(i))
	}
	events, dropped := o.Events()
	if dropped != 84 {
		t.Fatalf("dropped = %d, want 84", dropped)
	}
	if len(events) != 16 {
		t.Fatalf("retained = %d, want 16", len(events))
	}
	for i, e := range events {
		if want := float64(84 + i); e.Args[0].Val != want {
			t.Fatalf("event %d stamp = %v, want %v", i, e.Args[0].Val, want)
		}
	}
}

// TestRingConcurrentWraparound runs several writers past capacity under
// the race detector. Each writer stamps its events with a per-writer
// monotone sequence; after the dust settles, the ring must retain, for
// every writer, a consecutive increasing suffix of its sequence — the
// oldest-overwrite guarantee — and account for every drop.
func TestRingConcurrentWraparound(t *testing.T) {
	const (
		writers  = 4
		perEach  = 200
		capacity = 64
	)
	o := New(Options{TraceCapacity: capacity})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perEach; i++ {
				o.Count(int32(w), "seq", float64(i))
			}
		}(w)
	}
	wg.Wait()

	events, dropped := o.Events()
	if len(events) != capacity {
		t.Fatalf("retained = %d, want %d", len(events), capacity)
	}
	if want := uint64(writers*perEach - capacity); dropped != want {
		t.Fatalf("dropped = %d, want %d", dropped, want)
	}
	perWriter := make(map[int32][]float64)
	for _, e := range events {
		perWriter[e.Track] = append(perWriter[e.Track], e.Args[0].Val)
	}
	for w, stamps := range perWriter {
		for i := 1; i < len(stamps); i++ {
			if stamps[i] != stamps[i-1]+1 {
				t.Fatalf("writer %d retained stamps not consecutive: %v", w, stamps)
			}
		}
	}

	// The truncated trace must still decode and carry the drop count.
	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := DecodeChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("truncated trace fails validation: %v", err)
	}
	if d.Dropped != dropped {
		t.Fatalf("decoded Dropped = %d, want %d", d.Dropped, dropped)
	}
	if len(d.Events) != capacity {
		t.Fatalf("decoded events = %d, want %d", len(d.Events), capacity)
	}
}

func TestAddReportSection(t *testing.T) {
	o := New(Options{})
	o.AddReportSection("causality", func() string { return "blame line 1\nblame line 2" })
	var nilObs *Observer
	nilObs.AddReportSection("x", func() string { return "" }) // must not panic
	rep := o.Report()
	if !strings.Contains(rep, "-- causality --") {
		t.Fatalf("report missing section header:\n%s", rep)
	}
	if !strings.Contains(rep, "blame line 1\nblame line 2\n") {
		t.Fatalf("report missing section body (with trailing newline):\n%s", rep)
	}
}
