package timewarp

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/comm"
)

func randFrame(rng *rand.Rand, k int) *comm.Frame {
	f := &comm.Frame{T: rng.Uint64(), Src: rng.Int31n(int32(k)), Words: make([]uint64, rng.Intn(6))}
	for i := range f.Words {
		f.Words[i] = rng.Uint64()
	}
	return f
}

func TestWireCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const k = 1 << 20
	for i := 0; i < 500; i++ {
		f, dst := randFrame(rng, k), rng.Intn(k)
		buf := appendFrame(nil, dst, f)
		if len(buf) != wireFrameHeader+8*len(f.Words) {
			t.Fatalf("frame of %d words encoded in %d bytes", len(f.Words), len(buf))
		}
		gotDst, got, err := decodeFrame(buf, k)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if gotDst != dst || !reflect.DeepEqual(got, f) {
			t.Fatalf("round trip mismatch:\n got %d %#v\nwant %d %#v", gotDst, got, dst, f)
		}
	}
}

// TestWireCodecDecodeHostile: a data frame is a 16-byte header — the
// destination, the stamp and the source — and whole words; the length
// alone says how many. A header-only frame carries no word. A payload
// shorter than the header, one that ends inside a word, and a route
// outside the network are errors, and random garbage never panics.
func TestWireCodecDecodeHostile(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const k = 4

	buf := appendFrame(nil, 1, &comm.Frame{T: 5, Src: 3, Words: []uint64{rng.Uint64(), rng.Uint64(), 7}})
	for cut := 0; cut <= len(buf); cut++ {
		dst, f, err := decodeFrame(buf[:cut], k)
		whole := cut >= wireFrameHeader && (cut-wireFrameHeader)%8 == 0
		if whole != (err == nil) {
			t.Fatalf("%d of %d bytes: error %v", cut, len(buf), err)
		}
		if whole && (dst != 1 || f.T != 5 || f.Src != 3 || len(f.Words) != (cut-wireFrameHeader)/8) {
			t.Fatalf("%d of %d bytes: decoded %d %+v", cut, len(buf), dst, f)
		}
	}
	if _, _, err := decodeFrame(append(append([]byte(nil), buf...), 0x00), k); err == nil {
		t.Fatal("frame with a trailing byte decoded")
	}

	for _, route := range [][2]int{{3, 4}, {4, 1}, {0, 1 << 31}} {
		bad := appendFrame(nil, route[1], &comm.Frame{T: 1, Src: int32(route[0])})
		if _, _, err := decodeFrame(bad, k); err == nil || !strings.Contains(err.Error(), "outside 4-cluster network") {
			t.Fatalf("route %d→%d: error %v, want it outside the network", route[0], route[1], err)
		}
	}

	// Random garbage errors cleanly.
	for i := 0; i < 2000; i++ {
		junk := make([]byte, rng.Intn(128))
		rng.Read(junk)
		_, _, _ = decodeFrame(junk, k) // must not panic
	}
}

// hostileFrames are data frames 1→0 a receiver must refuse, each for one
// reason: a payload that ends inside a word, padding bits set past a
// one-value link's bit (the decoder passes it; apply refuses it), and a
// route outside an 8-cluster network.
func hostileFrames() [][]byte {
	two := appendFrame(nil, 0, &comm.Frame{T: 2, Src: 1, Words: []uint64{1, 1 << 63}})
	padding := appendFrame(nil, 0, &comm.Frame{T: 3, Src: 1, Words: []uint64{^uint64(0)}})
	route := appendFrame(nil, 9, &comm.Frame{T: 3, Src: 1, Words: []uint64{1}})
	return [][]byte{two[:len(two)-3], padding, route}
}

// FuzzWireDecode hardens the data-frame decoder against arbitrary bytes;
// anything that does decode must re-encode to the same bytes (the decoder
// accepts only canonical encodings).
func FuzzWireDecode(f *testing.F) {
	f.Add(appendFrame(nil, 0, &comm.Frame{T: 7, Src: 1, Words: []uint64{9}}))
	f.Add(appendFrame(nil, 2, &comm.Frame{T: 2, Src: 0, Words: []uint64{1, 1 << 63}}))
	f.Add([]byte{})
	for _, h := range hostileFrames() {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dst, fr, err := decodeFrame(data, 8)
		if err != nil {
			return
		}
		if re := appendFrame(nil, dst, fr); !reflect.DeepEqual(re, data) {
			t.Fatalf("non-canonical encoding accepted:\n in  %x\n out %x", data, re)
		}
	})
}
