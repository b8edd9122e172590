package timewarp

import (
	"fmt"

	"repro/internal/netlist"
)

// cycleRec is the rollback record of one executed cycle: what it takes to
// put the cluster back at the cycle's start. A net is one bit, written only
// when it changes, so what a cycle's first write of a net overwrote is the
// complement of what the net holds right after it; later writes of the net
// in the same cycle need no entry.
//
// The restore rule: a record holds every net the cycle wrote that is read
// before the cluster writes it again — stimulus inputs, remote inputs,
// boundary nets (whose old value decides what the next settle sends) and
// flip-flop outputs. An own combinational output no other cluster reads is
// left out: re-executing the restored cycle, the settle rewrites it from its
// inputs, in topological order, before anything reads it (DESIGN §26).
type cycleRec struct {
	old   []uint32 // net<<1 | the bit it held, once per net noted
	evals uint64   // gate evaluations of the cycle
}

// undoLog is all the rollback state a cluster keeps for its net values and
// evaluation counts: hist[i] is the record of cycle fossil+i, one
// per executed cycle from the fossil line to the one executing. A rollback
// truncates it, re-execution appends again, and a dropped record is garbage:
// nothing is pooled (DESIGN §28). Only the owning cluster goroutine calls it.
type undoLog struct {
	hist   []cycleRec
	fossil uint64 // the cycle of hist[0]; below it nothing can be restored

	// cur collects the open cycle's old entries; mark[n] == stamp says net n
	// has its entry already.
	cur   []uint32
	mark  []uint64 // by net
	stamp uint64
}

// begin opens the record of the next cycle.
func (u *undoLog) begin() {
	u.hist = append(u.hist, cycleRec{})
	u.stamp++
	u.cur = u.cur[:0]
}

// note records that the open cycle has just written net n — after the write,
// which changed the bit. A nil log, that of a cluster nothing can roll back,
// notes nothing.
func (u *undoLog) note(n netlist.NetID, values []bool) {
	if u != nil && u.mark[n] != u.stamp {
		u.mark[n] = u.stamp
		o := uint32(n) << 1
		if !values[n] {
			o |= 1
		}
		u.cur = append(u.cur, o)
	}
}

// end closes the open record: the cycle completed after evals gate
// evaluations.
func (u *undoLog) end(evals uint64) {
	r := &u.hist[len(u.hist)-1]
	r.old, r.evals = append([]uint32(nil), u.cur...), evals
}

// undo takes the noted nets back to their values at the start of cycle tc,
// newest record first, and drops the records of tc and later, which
// re-execution writes again. It returns the evaluations undone.
func (u *undoLog) undo(tc uint64, values []bool) (evals uint64, err error) {
	if tc < u.fossil {
		return 0, fmt.Errorf("rollback to fossil-collected cycle %d (fossil line %d)", tc, u.fossil)
	}
	if tc-u.fossil >= uint64(len(u.hist)) {
		return 0, fmt.Errorf("rollback to cycle %d, which has no checkpoint (fossil line %d, %d records)",
			tc, u.fossil, len(u.hist))
	}
	at := int(tc - u.fossil)
	for i := len(u.hist) - 1; i >= at; i-- {
		for _, o := range u.hist[i].old {
			values[o>>1] = o&1 != 0
		}
		evals += u.hist[i].evals
	}
	clear(u.hist[at:])
	u.hist = u.hist[:at]
	return evals, nil
}

// trim fossil-collects the records below cycle line, which is at most the
// next cycle to execute.
func (u *undoLog) trim(line uint64) {
	n := copy(u.hist, u.hist[line-u.fossil:])
	clear(u.hist[n:])
	u.hist, u.fossil = u.hist[:n], line
}
