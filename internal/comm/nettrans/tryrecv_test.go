package nettrans

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"
)

// socketPair returns the two ends of one TCP connection on 127.0.0.1.
// TryRecv needs a descriptor to poll, which net.Pipe does not have.
func socketPair(t testing.TB) (w net.Conn, r *Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	w, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	acc, err := ln.Accept()
	if err != nil {
		w.Close()
		t.Fatal(err)
	}
	r = NewConn(acc)
	t.Cleanup(func() { w.Close(); r.Close() })
	return w, r
}

type gotFrame struct {
	typ     byte
	payload []byte
}

// readAll is the reference: every frame ReadFrame yields on data, and the
// error that ends the stream.
func readAll(data []byte) (frames []gotFrame, err error) {
	r := bytes.NewReader(data)
	for {
		typ, payload, err := ReadFrame(r)
		if err != nil {
			return frames, err
		}
		frames = append(frames, gotFrame{typ, payload})
	}
}

// pollAll writes data to one end of a socket pair in the chunks cuts
// dictates (each byte is a chunk length − 1; the rest goes out in 32 KiB
// pieces), polls the other end with TryRecv after every chunk until the
// parser has taken in everything written so far, closes the writer, and
// returns what TryRecv handed out and the error that ended the stream.
func pollAll(t testing.TB, data, cuts []byte) (frames []gotFrame, err error) {
	t.Helper()
	w, r := socketPair(t)
	taken := 0 // bytes handed out as frames
	handle := func(typ byte, payload []byte) error {
		taken += 5 + len(payload)
		frames = append(frames, gotFrame{typ, append([]byte(nil), payload...)})
		return nil
	}
	deadline := time.Now().Add(10 * time.Second)
	written := 0
	for written < len(data) {
		n := 32 << 10
		if len(cuts) > 0 {
			n, cuts = int(cuts[0])+1, cuts[1:]
		}
		n = min(n, len(data)-written)
		if _, werr := w.Write(data[written : written+n]); werr != nil {
			t.Fatalf("write: %v", werr)
		}
		written += n
		for taken+(r.pend-r.ppos) < written {
			if err = r.TryRecv(handle); err != nil {
				return frames, err
			}
			if time.Now().After(deadline) {
				t.Fatalf("parser took %d of %d written bytes", taken+(r.pend-r.ppos), written)
			}
		}
	}
	w.Close()
	for {
		if err = r.TryRecv(handle); err != nil {
			return frames, err
		}
		if time.Now().After(deadline) {
			t.Fatal("no end of stream after the writer closed")
		}
		runtime.Gosched()
	}
}

// checkSameAsReadFrame is the property the fuzz target and the fixed cases
// share: TryRecv yields exactly ReadFrame's frames and ReadFrame's first
// error on the same bytes however they are cut, then stays failed.
func checkSameAsReadFrame(t testing.TB, data, cuts []byte) {
	t.Helper()
	want, wantErr := readAll(data)
	got, gotErr := pollAll(t, data, cuts)
	if len(got) != len(want) {
		t.Fatalf("TryRecv delivered %d frames, ReadFrame %d (errors %v / %v)",
			len(got), len(want), gotErr, wantErr)
	}
	for i := range want {
		if got[i].typ != want[i].typ || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("frame %d: TryRecv type 0x%02x %d bytes, ReadFrame type 0x%02x %d bytes",
				i, got[i].typ, len(got[i].payload), want[i].typ, len(want[i].payload))
		}
	}
	if gotErr.Error() != wantErr.Error() {
		t.Fatalf("after %d frames TryRecv ended with %q, ReadFrame with %q", len(want), gotErr, wantErr)
	}
	for _, class := range []error{io.EOF, io.ErrUnexpectedEOF, ErrFrameEmpty, ErrFrameTooLarge} {
		if errors.Is(gotErr, class) != errors.Is(wantErr, class) {
			t.Fatalf("TryRecv error %v and ReadFrame error %v differ on errors.Is(%v)", gotErr, wantErr, class)
		}
	}
}

// hostileStreams are frame_test.go's garbage cases as whole byte streams.
func hostileStreams() [][]byte {
	var valid, two bytes.Buffer
	WriteFrame(&valid, FrameReport, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	WriteFrame(&two, FrameData, []byte("hello, wire"))
	WriteFrame(&two, FrameProgress, nil)
	var tooLarge [5]byte
	binary.BigEndian.PutUint32(tooLarge[:4], MaxFrame+1)
	streams := [][]byte{
		{},
		{0, 0, 0, 1, FrameData},
		{0, 0, 0, 0},                      // zero length
		{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}, // 0xFFFFFFFF length
		tooLarge[:],
		valid.Bytes(),
		two.Bytes(),
		two.Bytes()[:two.Len()-3], // truncated body
		two.Bytes()[:16+2],        // truncated header of the second frame
		append(append([]byte(nil), two.Bytes()...), 0, 0, 0, 0), // frames, then an empty one
		append(append([]byte(nil), valid.Bytes()...), tooLarge[:]...),
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		junk := make([]byte, rng.Intn(64))
		rng.Read(junk)
		streams = append(streams, junk)
	}
	return streams
}

func TestTryRecvMatchesReadFrame(t *testing.T) {
	for _, data := range hostileStreams() {
		checkSameAsReadFrame(t, data, nil)                     // one write
		checkSameAsReadFrame(t, data, make([]byte, len(data))) // a byte at a time
		checkSameAsReadFrame(t, data, []byte{3, 0, 6})
	}
}

// FuzzTryRecv cuts an arbitrary byte stream at arbitrary points, feeds it
// through TryRecv over a real socket, and requires ReadFrame's frames and
// ReadFrame's first error: never a panic, never part of a frame.
func FuzzTryRecv(f *testing.F) {
	for _, data := range hostileStreams() {
		f.Add(data, []byte{})
		f.Add(data, []byte{0, 3, 0, 0, 7})
	}
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		checkSameAsReadFrame(t, data, cuts)
	})
}

func TestTryRecvFrameLargerThanBuffer(t *testing.T) {
	// A frame beyond the read buffer grows it; frames after it still parse.
	var stream bytes.Buffer
	big := bytes.Repeat([]byte{0xAB}, 3*tryRecvBuf+17)
	WriteFrame(&stream, FrameResult, big)
	WriteFrame(&stream, FrameData, []byte{1})
	checkSameAsReadFrame(t, stream.Bytes(), nil)
	checkSameAsReadFrame(t, stream.Bytes(), []byte{255, 2})
}

func TestTryRecvStickyErrors(t *testing.T) {
	w, r := socketPair(t)
	WriteFrame(w, FrameData, []byte{1})
	WriteFrame(w, FrameData, []byte{2})
	w.Close()
	boom := errors.New("boom")
	var seen int
	handle := func(byte, []byte) error { seen++; return boom }
	var err error
	for deadline := time.Now().Add(5 * time.Second); err == nil && time.Now().Before(deadline); {
		err = r.TryRecv(handle)
	}
	if err != boom || seen != 1 {
		t.Fatalf("handler error: got %v after %d frames, want boom after 1", err, seen)
	}
	if err := r.TryRecv(handle); err != boom || seen != 1 {
		t.Fatalf("second call: %v after %d frames; a failed connection must deliver nothing more", err, seen)
	}
}

func TestTryRecvAfterRecv(t *testing.T) {
	// A blocking Recv may pull later frames into its buffered reader (the
	// handshake read on a mesh connection); the first TryRecv hands those
	// out before it touches the socket.
	w, r := socketPair(t)
	var stream bytes.Buffer
	WriteFrame(&stream, FramePeerHello, []byte{9})
	WriteFrame(&stream, FrameData, []byte{1, 2})
	WriteFrame(&stream, FrameProgress, []byte{3})
	if _, err := w.Write(stream.Bytes()); err != nil {
		t.Fatal(err)
	}
	typ, _, err := r.Recv()
	if err != nil || typ != FramePeerHello {
		t.Fatalf("Recv: type 0x%02x, %v", typ, err)
	}
	var types []byte
	handle := func(typ byte, _ []byte) error { types = append(types, typ); return nil }
	for deadline := time.Now().Add(5 * time.Second); len(types) < 2 && time.Now().Before(deadline); {
		if err := r.TryRecv(handle); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(types, []byte{FrameData, FrameProgress}) {
		t.Fatalf("frames after the Recv: % x", types)
	}
}

func TestTryRecvNoDescriptor(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if err := NewConn(a).TryRecv(nil); !errors.Is(err, ErrNoDescriptor) {
		t.Fatalf("TryRecv on a net.Pipe: %v, want ErrNoDescriptor", err)
	}
}

func TestTryRecvIdlePollAllocatesNothing(t *testing.T) {
	// The per-poll cost DESIGN §21 states: one read(2) on an idle socket,
	// nothing for the garbage collector.
	_, r := socketPair(t)
	handle := func(byte, []byte) error { return nil }
	if err := r.TryRecv(handle); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { r.TryRecv(handle) }); n != 0 {
		t.Fatalf("an idle poll allocates %.1f objects, want 0", n)
	}
}

func TestLinkDown(t *testing.T) {
	for _, err := range []error{io.EOF, errTruncatedHeader(), errTruncatedBody(1, 9), net.ErrClosed} {
		if !LinkDown(err) {
			t.Errorf("LinkDown(%v) = false", err)
		}
	}
	for _, err := range []error{ErrFrameEmpty, ErrFrameTooLarge, ErrShortPayload, errors.New("x")} {
		if LinkDown(err) {
			t.Errorf("LinkDown(%v) = true", err)
		}
	}
}

// BenchmarkTryRecvIdle prices one poll of a socket that holds nothing: the
// cost every cluster-cycle pays per peer worker (BENCH_15.txt §5).
func BenchmarkTryRecvIdle(b *testing.B) {
	_, r := socketPair(b)
	handle := func(byte, []byte) error { return nil }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.TryRecv(handle); err != nil {
			b.Fatal(err)
		}
	}
}
