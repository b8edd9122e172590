package timewarp

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/netlist"
)

func randEvent(rng *rand.Rand) event {
	return event{
		T:   rng.Uint64(),
		Net: netlist.NetID(rng.Int31()),
		Val: rng.Intn(2) == 0,
		Src: rng.Int31(),
		Seq: rng.Uint64(),
	}
}

func TestWireCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		var msg any
		if rng.Intn(2) == 0 {
			msg = randEvent(rng)
		} else {
			b := make(batch, rng.Intn(20))
			for j := range b {
				b[j] = randEvent(rng)
			}
			msg = b
		}
		buf, err := appendMessage(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeMessage(buf)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, msg)
		}
	}
}

func TestWireCodecRejectsUnknownPayload(t *testing.T) {
	if _, err := appendMessage(nil, "not an event"); err == nil {
		t.Fatal("string payload encoded without error")
	}
}

func TestWireCodecDecodeHostile(t *testing.T) {
	rng := rand.New(rand.NewSource(23))

	// Every strict prefix and every one-byte extension of a valid
	// encoding must error: no partial events, no silently ignored tails.
	b := make(batch, 3)
	for j := range b {
		b[j] = randEvent(rng)
	}
	buf, err := appendMessage(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, err := decodeMessage(buf[:cut]); err == nil {
			t.Fatalf("truncated batch (%d/%d bytes) decoded", cut, len(buf))
		}
	}
	if _, err := decodeMessage(append(append([]byte(nil), buf...), 0x00)); err == nil {
		t.Fatal("batch with trailing garbage decoded")
	}

	// A count field claiming far more events than the payload holds must
	// be rejected before any count-sized allocation.
	huge := []byte{1, 0xFF, 0xFF, 0xFF, 0xF0}
	if _, err := decodeMessage(huge); err == nil {
		t.Fatal("batch with absurd count decoded")
	}

	// The flag bit that marked an anti-message in protocol version 10 is
	// an unknown bit now.
	anti, _ := appendMessage(nil, event{T: 2, Src: 1, Seq: 3})
	anti[1+8+4] |= 2
	if _, err := decodeMessage(anti); err == nil {
		t.Fatal("event with the former anti-message flag decoded")
	}

	// Unknown kinds and random garbage error cleanly.
	if _, err := decodeMessage([]byte{0x7F, 1, 2, 3}); err == nil {
		t.Fatal("unknown kind decoded")
	}
	for i := 0; i < 2000; i++ {
		junk := make([]byte, rng.Intn(128))
		rng.Read(junk)
		_, _ = decodeMessage(junk) // must not panic
	}
}

// FuzzWireDecode hardens the kernel message decoder against arbitrary
// bytes; anything that does decode must re-encode to the same bytes
// (the decoder accepts only canonical encodings).
func FuzzWireDecode(f *testing.F) {
	seed, _ := appendMessage(nil, event{T: 7, Net: 3, Val: true, Src: 1, Seq: 9})
	f.Add(seed)
	seed2, _ := appendMessage(nil, batch{{T: 1}, {T: 2, Val: true}})
	f.Add(seed2)
	seed3 := append([]byte(nil), seed...)
	seed3[1+8+4] = 3 // Val and the former anti-message bit
	f.Add(seed3)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := decodeMessage(data)
		if err != nil {
			return
		}
		re, err := appendMessage(nil, msg)
		if err != nil {
			t.Fatalf("re-encode of decoded message: %v", err)
		}
		if !reflect.DeepEqual(re, data) {
			t.Fatalf("non-canonical encoding accepted:\n in  %x\n out %x", data, re)
		}
	})
}
