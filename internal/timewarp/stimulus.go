package timewarp

import (
	"runtime"
	"sync/atomic"

	"repro/internal/sim"
)

// stimulus is a host's table of input vectors: row c holds Config.Vectors'
// vector for cycle c, bit-packed, filled by whichever cluster needs it
// first. Every later execution of cycle c — by another cluster, or by the
// same one after a rollback — reads the row instead of generating the
// vector again, so the source runs once per cycle per process, not once
// per cluster per execution.
//
// The table grows by chunks of stimChunkRows rows, so that it costs memory
// for the cycles a run reaches and not for the cycles it was asked for, and
// an allocation per chunk, not per cycle. Nothing in it locks. A chunk is
// published by compare-and-swap, and the loser of that race drops its own.
// A row is a header word followed by the packed bits. A cluster claims an
// empty row by compare-and-swap on its header (rowEmpty → rowFilling)
// before it generates the vector, and turns the header to rowReady after
// the bits are stored; a reader that sees rowReady sees the bits (the
// atomics order the two). So every row is generated exactly once: clusters
// that run in lockstep reach each row together, and the loser of the claim
// waits for rowReady, which costs it at most the generation it would have
// run itself.
type stimulus struct {
	src    sim.VectorSource
	stride int // words per row, header included
	chunks []atomic.Pointer[stimChunk]
}

// stimChunk is stimChunkRows consecutive rows.
type stimChunk struct{ words []atomic.Uint64 }

const stimChunkRows = 1024

// A row header's states.
const (
	rowEmpty = iota
	rowFilling
	rowReady
)

// newStimulus prepares the table for cycles vectors of width bits from src.
func newStimulus(src sim.VectorSource, width int, cycles uint64) *stimulus {
	return &stimulus{
		src:    src,
		stride: 1 + (width+63)/64,
		chunks: make([]atomic.Pointer[stimChunk], (cycles+stimChunkRows-1)/stimChunkRows),
	}
}

// row returns the packed vector of cycle cyc: bit i of the vector is bit
// i%64 of word i/64. scratch is the caller's own buffer of the vector's
// width, used only when the row has to be filled.
func (s *stimulus) row(cyc uint64, scratch []bool) []atomic.Uint64 {
	slot := &s.chunks[cyc/stimChunkRows]
	ch := slot.Load()
	if ch == nil {
		ch = &stimChunk{words: make([]atomic.Uint64, stimChunkRows*s.stride)}
		if !slot.CompareAndSwap(nil, ch) {
			ch = slot.Load()
		}
	}
	r := ch.words[cyc%stimChunkRows*uint64(s.stride):][:s.stride]
	hdr, bits := &r[0], r[1:]
	if hdr.Load() == rowReady {
		return bits
	}
	if !hdr.CompareAndSwap(rowEmpty, rowFilling) {
		for hdr.Load() != rowReady {
			runtime.Gosched()
		}
		return bits
	}
	s.src.Vector(cyc, scratch)
	for w := range bits {
		var word uint64
		for i, v := range scratch[w*64 : min(w*64+64, len(scratch))] {
			if v {
				word |= 1 << uint(i)
			}
		}
		bits[w].Store(word)
	}
	hdr.Store(rowReady)
	return bits
}
