package timewarp

import (
	"math/rand"
	"reflect"
	"testing"
)

func randFrame(rng *rand.Rand) *frame {
	f := &frame{T: rng.Uint64(), Src: rng.Int31(), Words: make([]uint64, rng.Intn(6))}
	for i := range f.Words {
		f.Words[i] = rng.Uint64()
	}
	return f
}

func TestWireCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		f := randFrame(rng)
		buf, err := appendMessage(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeMessage(buf)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, f)
		}
	}
}

func TestWireCodecRejectsUnknownPayload(t *testing.T) {
	if _, err := appendMessage(nil, "not a frame"); err == nil {
		t.Fatal("string payload encoded without error")
	}
	if _, err := appendMessage(nil, frame{}); err == nil {
		t.Fatal("frame by value encoded without error")
	}
}

func TestWireCodecDecodeHostile(t *testing.T) {
	rng := rand.New(rand.NewSource(23))

	// Every strict prefix and every one-byte extension of a valid
	// encoding must error: no partial frames, no silently ignored tails.
	buf, err := appendMessage(nil, &frame{T: 5, Src: 1, Words: []uint64{rng.Uint64(), rng.Uint64(), 7}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, err := decodeMessage(buf[:cut]); err == nil {
			t.Fatalf("truncated frame (%d/%d bytes) decoded", cut, len(buf))
		}
	}
	if _, err := decodeMessage(append(append([]byte(nil), buf...), 0x00)); err == nil {
		t.Fatal("frame with trailing garbage decoded")
	}

	// A count field claiming far more words than the payload holds must
	// be rejected before any count-sized allocation.
	huge := append(make([]byte, 12), 0xFF, 0xFF, 0xFF, 0xF0)
	if _, err := decodeMessage(huge); err == nil {
		t.Fatal("frame with absurd count decoded")
	}

	// Random garbage errors cleanly.
	for i := 0; i < 2000; i++ {
		junk := make([]byte, rng.Intn(128))
		rng.Read(junk)
		_, _ = decodeMessage(junk) // must not panic
	}
}

// hostileFrames are frame payloads a receiver must refuse, each for one
// reason: a word count the payload does not hold, padding bits set past a
// one-value link's bit (the decoder passes it; absorbFrame refuses it), and
// a truncated frame.
func hostileFrames() [][]byte {
	two, _ := appendMessage(nil, &frame{T: 2, Src: 0, Words: []uint64{1, 1 << 63}})
	wrongCount := append([]byte(nil), two...)
	wrongCount[8+4+3] = 3 // three words claimed, two present
	padding, _ := appendMessage(nil, &frame{T: 3, Src: 1, Words: []uint64{^uint64(0)}})
	return [][]byte{wrongCount, padding, two[:len(two)-3]}
}

// FuzzWireDecode hardens the frame decoder against arbitrary bytes;
// anything that does decode must re-encode to the same bytes (the decoder
// accepts only canonical encodings).
func FuzzWireDecode(f *testing.F) {
	seed, _ := appendMessage(nil, &frame{T: 7, Src: 1, Words: []uint64{9}})
	f.Add(seed)
	seed2, _ := appendMessage(nil, &frame{T: 2, Src: 0, Words: []uint64{1, 1 << 63}})
	f.Add(seed2)
	f.Add([]byte{})
	for _, h := range hostileFrames() {
		f.Add(h)
	}
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
