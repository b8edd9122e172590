package nettrans

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {0x42}, bytes.Repeat([]byte{0xAB}, 100_000)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != byte(i+1) {
			t.Fatalf("frame %d: type %d, want %d", i, typ, i+1)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload %d bytes, want %d", i, len(got), len(p))
		}
	}
	if _, _, err := ReadFrame(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("exhausted stream: %v, want io.EOF", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	// Every strict prefix of a valid frame must produce an error —
	// never a short payload delivered as if complete.
	var full bytes.Buffer
	if err := WriteFrame(&full, FrameData, []byte("hello, wire")); err != nil {
		t.Fatal(err)
	}
	whole := full.Bytes()
	for cut := 0; cut < len(whole); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(whole[:cut]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(whole))
		}
		if cut > 0 && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("prefix %d: %v, want an EOF-family error", cut, err)
		}
	}
}

func TestReadFrameOversizedLength(t *testing.T) {
	// A corrupted length prefix must be rejected before any allocation
	// of that size happens.
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxFrame+1)
	_, _, err := ReadFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized length: %v, want ErrFrameTooLarge", err)
	}
	binary.BigEndian.PutUint32(hdr[:4], 0xFFFFFFFF)
	_, _, err = ReadFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("0xFFFFFFFF length: %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameZeroLength(t *testing.T) {
	var hdr [4]byte // length 0: cannot even carry the type byte
	_, _, err := ReadFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrFrameEmpty) {
		t.Fatalf("zero length: %v, want ErrFrameEmpty", err)
	}
}

func TestWriteFrameOversized(t *testing.T) {
	err := WriteFrame(io.Discard, FrameData, make([]byte, MaxFrame))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write: %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameGarbageStream(t *testing.T) {
	// Seeded random garbage: the reader must either parse a (nonsense
	// but well-formed) frame or error — never panic, never hang.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(64)
		junk := make([]byte, n)
		rng.Read(junk)
		r := bytes.NewReader(junk)
		for {
			_, _, err := ReadFrame(r)
			if err != nil {
				break
			}
		}
	}
}

func TestDecDoesNotPanicOnUnderflow(t *testing.T) {
	d := NewDec([]byte{1, 2})
	_ = d.U64()
	_ = d.U32()
	_ = d.Str()
	_ = d.Bytes()
	_ = d.U8()
	if !errors.Is(d.Err(), ErrShortPayload) {
		t.Fatalf("underflow err: %v", d.Err())
	}
}

func TestDecBytesHugeLengthPrefix(t *testing.T) {
	// A length prefix larger than the remaining payload must error, not
	// allocate or slice out of range.
	p := AppendU32(nil, 0xFFFFFFF0)
	p = append(p, 1, 2, 3)
	d := NewDec(p)
	if b := d.Bytes(); b != nil || d.Err() == nil {
		t.Fatalf("huge length prefix: got %v, err %v", b, d.Err())
	}
}

// TestHandshakeRoundTrip: a hello and a peer hello decode to what was
// encoded, and a hello from any other build is refused. (The welcome that
// answers a hello is the kernel's: internal/timewarp's welcome codec.)
func TestHandshakeRoundTrip(t *testing.T) {
	h, err := DecodeHello(AppendHello(nil, Hello{DataAddr: "10.0.0.1:9", StartUnixNano: -7}))
	if err != nil || h.DataAddr != "10.0.0.1:9" || h.StartUnixNano != -7 {
		t.Fatalf("hello round trip: %+v, %v", h, err)
	}
	if _, err := DecodeHello([]byte("GET / HTTP/1.1\r\n")); err == nil {
		t.Fatal("stray HTTP client accepted as worker")
	}
	// A worker built while an event's T was a delta-scaled virtual time
	// rather than the cycle that reads it, one built while clusters rolled
	// back and a GVT frame went round, one that answered the coordinator's
	// cut rounds instead of reporting on its own, and one that derived a
	// link's bits from the netlist instead of the records its receiver
	// keeps, and one that waited for a start frame after its welcome.
	for _, v := range []uint32{9, 10, 13, 14, 15, 16} {
		old := AppendI64(AppendStr(AppendU32(AppendU32(nil, Magic), v), "10.0.0.1:9"), 0)
		want := fmt.Sprintf("protocol version %d, this build speaks %d", v, Version)
		if _, err := DecodeHello(old); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d hello: error %v, want the version refused", v, err)
		}
	}
	// Every field is required: a hello cut short of its start instant is
	// malformed, not a hello from an uninstrumented worker.
	short := AppendHello(nil, Hello{DataAddr: "10.0.0.1:9"})
	if _, err := DecodeHello(short[:len(short)-8]); err == nil || !strings.Contains(err.Error(), "malformed hello") {
		t.Fatalf("hello without its start instant: error %v, want it malformed", err)
	}
	if _, err := DecodePeerHello(AppendPeerHello(nil, PeerHello{WorkerID: 7}), 3); err == nil {
		t.Fatal("peer hello with out-of-mesh worker id accepted")
	}
}

// TestDataFrameRoundTrip: a data frame carries the kernel's bytes
// untouched. Queued or sent over a Conn, each payload comes out of the
// other end byte for byte and in order, one longer than the write buffer
// included, and a payload changed after Queue returns is not changed on
// the wire.
func TestDataFrameRoundTrip(t *testing.T) {
	w, r := socketPair(t)
	wc := NewConn(w)
	rng := rand.New(rand.NewSource(61))
	big := make([]byte, 100_000)
	rng.Read(big)
	payloads := [][]byte{{0xAA, 0xBB, 0xCC}, bytes.Repeat([]byte{0x5A}, 16), big}
	for _, p := range payloads[:len(payloads)-1] {
		q := append([]byte(nil), p...)
		if err := wc.Queue(FrameData, q); err != nil {
			t.Fatal(err)
		}
		for i := range q {
			q[i] ^= 0xFF
		}
	}
	if err := wc.Send(FrameData, payloads[len(payloads)-1]); err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		typ, got, err := r.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != FrameData || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: type %#x, %d bytes; want FrameData, %d bytes as sent", i, typ, len(got), len(p))
		}
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader: any input must
// produce frames or an error without panicking, and a frame that does
// parse must round-trip back to identical bytes.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, FrameData})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	var seed bytes.Buffer
	WriteFrame(&seed, FrameReport, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			typ, payload, err := ReadFrame(r)
			if err != nil {
				return
			}
			var re bytes.Buffer
			if err := WriteFrame(&re, typ, payload); err != nil {
				t.Fatalf("re-encode of parsed frame failed: %v", err)
			}
		}
	})
}

// FuzzDecodeHello hardens the handshake decoders of this package against
// arbitrary bytes.
func FuzzDecodeHello(f *testing.F) {
	f.Add(AppendHello(nil, Hello{DataAddr: "127.0.0.1:9", StartUnixNano: 1}))
	f.Add(AppendPeerHello(nil, PeerHello{WorkerID: 2}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeHello(data)
		_, _ = DecodePeerHello(data, 4)
	})
}
