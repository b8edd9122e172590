package timewarp

import (
	"fmt"

	"repro/internal/netlist"
)

// cycleRec is the rollback record of one executed cycle: what it takes to
// put the cluster back at the cycle's start, and what the cycle sent.
//
// old holds one net<<1 | the bit it held per net noted. A net is one bit,
// written only when it changes, so what a cycle's first write of a net
// overwrote is the complement of what the net holds right after it; later
// writes of the net in the same cycle need no entry. The restore rule: old
// holds every net the cycle wrote that is read before the cluster writes it
// again — stimulus inputs, remote inputs, boundary nets (whose old value
// decides what the next settle sends) and flip-flop outputs. An own
// combinational output no other cluster reads is left out: re-executing the
// restored cycle, the settle rewrites it from its inputs, in topological
// order, before anything reads it (DESIGN §26).
//
// sent holds the positive events the cycle sent that still stand, in send
// order, at most one per net: what an anti-message would have to cancel. A
// rollback restores old and keeps sent, so re-execution decides each one's
// fate lazily (takeSent, unsent; DESIGN §27).
type cycleRec struct {
	old  []uint32
	sent []event
}

// undoLog is all the rollback state a cluster keeps: hist[i] is the record
// of cycle fossil+i. hist[:top] are the cycles of the current execution,
// from the fossil line to the one executing; hist[top:] are cycles a
// rollback undid, whose sends still stand until their re-execution rewrites
// the record. A dropped record is garbage: nothing is pooled (DESIGN §28).
// Only the owning cluster goroutine calls it.
type undoLog struct {
	hist   []cycleRec
	top    int
	fossil uint64 // the cycle of hist[0]; below it nothing can be restored

	// cur and sent collect the open cycle's old entries and sends; mark[n]
	// == stamp says net n has its old entry already. taken counts the events
	// of the open cycle's previous execution that takeSent has handed back:
	// hist[top].sent[taken:] are the rest.
	cur   []uint32
	sent  []event
	taken int
	mark  []uint64 // by net
	stamp uint64
}

// begin opens the record of the next cycle, the one at top: a new record,
// or the undone one of a cycle being re-executed.
func (u *undoLog) begin() {
	if u.top == len(u.hist) {
		u.hist = append(u.hist, cycleRec{})
	}
	u.stamp++
	u.cur, u.sent, u.taken = u.cur[:0], u.sent[:0], 0
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

// keep records that the open cycle sent positive e, or let stand the event
// its previous execution sent. A nil log keeps nothing: nothing will ever
// cancel that cluster's events.
func (u *undoLog) keep(e event) {
	if u != nil {
		u.sent = append(u.sent, e)
	}
}

// takeSent removes and returns the event on net n that the open cycle's
// previous execution sent, if it did. Re-execution sends in the order the
// first execution did, so the match is usually the first of the rest; what
// lies before it is a handful of events not sent again.
func (u *undoLog) takeSent(n netlist.NetID) (event, bool) {
	rest := u.hist[u.top].sent[u.taken:]
	for i := range rest {
		if rest[i].Net == n {
			s := rest[i]
			copy(rest[1:i+1], rest[:i])
			u.taken++
			return s, true
		}
	}
	return event{}, false
}

// unsent returns, in send order, what the open cycle's previous execution
// sent and this one did not take back: events to cancel before the cycle
// ends.
func (u *undoLog) unsent() []event {
	return u.hist[u.top].sent[u.taken:]
}

// end closes the open record: the cycle completed. A re-executed cycle's
// record is written over the undone one's arrays, so it allocates only when
// it outgrows them.
func (u *undoLog) end() {
	r := &u.hist[u.top]
	r.old = append(r.old[:0], u.cur...)
	r.sent = append(r.sent[:0], u.sent...)
	u.top++
}

// undo takes the noted nets back to their values at the start of cycle tc,
// newest record first, and makes tc the next record to write; the undone
// records keep their sends for re-execution to judge. It returns how many
// cycles it undid.
func (u *undoLog) undo(tc uint64, values []bool) (cycles uint64, err error) {
	if tc < u.fossil {
		return 0, fmt.Errorf("rollback to fossil-collected cycle %d (fossil line %d)", tc, u.fossil)
	}
	if tc-u.fossil >= uint64(u.top) {
		return 0, fmt.Errorf("rollback to cycle %d, which has no checkpoint (fossil line %d, %d records)",
			tc, u.fossil, u.top)
	}
	at := int(tc - u.fossil)
	for i := u.top - 1; i >= at; i-- {
		for _, o := range u.hist[i].old {
			values[o>>1] = o&1 != 0
		}
	}
	cycles = uint64(u.top - at)
	u.top = at
	return cycles, nil
}

// trim fossil-collects the records below cycle line, which is at most the
// next cycle to execute, and with them the sends they kept.
func (u *undoLog) trim(line uint64) {
	d := int(line - u.fossil)
	n := copy(u.hist, u.hist[d:])
	clear(u.hist[n:])
	u.hist, u.top, u.fossil = u.hist[:n], u.top-d, line
}
