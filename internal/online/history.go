package online

import (
	"fmt"

	"desyncpfair/internal/rat"
	"desyncpfair/internal/sched"
)

// Record is one scheduling decision as the executive stores it. It is
// fixed-size (72 bytes) and holds no pointers, so a history of any length
// costs the garbage collector nothing to mark; every field that grows
// with uptime is an int64. The dispatched subtask is named by its task ID
// and its position in that task's released sequence (System.Subtasks).
// A record's decision number is not stored: it is its position in the
// history plus one (see decisionBase).
type Record struct {
	Start, Finish rat.Rat
	Deadline      int64 // pseudo-deadline d(T_i) of the subtask
	Index         int64 // subtask index i
	Seq           int64 // position in the task's released sequence
	Task          int64 // task ID
	Proc          int
}

// Tardiness returns max(0, Finish − Deadline), the subtask's tardiness
// per eq. (7).
func (r *Record) Tardiness() rat.Rat {
	t := r.Finish.Sub(rat.FromInt(r.Deadline))
	if t.Sign() < 0 {
		return rat.Zero
	}
	return t
}

// History returns every decision recorded so far, in decision order. The
// slice aliases the executive's append-only history: the executive only
// ever appends past its length, so the returned prefix never changes and
// may be read from other goroutines once the header has been handed over
// (internal/server publishes it in each tenant snapshot).
func (e *Executive) History() []Record { return e.hist }

// decisionBase is the number of decisions made before the first record
// of the history: 0, unless Restore ran without RestoreHistory, in which
// case the checkpoint's decisions are not in the history. Record i of the
// history is decision decisionBase()+i+1.
func (e *Executive) decisionBase() int64 { return e.decision - int64(len(e.hist)) }

// Schedule builds the schedule of everything in the history. It is a view
// formatted on read: each call allocates a fresh schedule, so callers on
// a hot path should read History instead.
func (e *Executive) Schedule() *sched.Schedule {
	asgs := make([]sched.Assignment, len(e.hist))
	base := e.decisionBase()
	for i := range e.hist {
		r := &e.hist[i]
		asgs[i] = sched.Assignment{
			Sub:      e.sys.Subtasks(e.sys.Tasks[r.Task])[r.Seq],
			Proc:     r.Proc,
			Start:    r.Start,
			Cost:     r.Finish.Sub(r.Start),
			Decision: int(base + int64(i) + 1),
		}
	}
	return sched.NewFrom(e.sys, e.maxM, e.policy.Name(), e.label, asgs)
}

// RestoreHistory seats the decisions a checkpointed executive made before
// its Checkpoint into the empty history of the executive Restore built
// from it, so History and Schedule cover the whole run again. Checkpoints
// leave the history out to stay proportional to live state; a caller that
// keeps the history elsewhere (internal/server keeps it in its snapshot's
// dispatch log) hands it back here. Every record is validated against the
// restored system: it must name a dispatched subtask with a matching
// index and deadline, one record per decision, in decision order (record
// i is decision i+1).
func (e *Executive) RestoreHistory(recs []Record) error {
	if len(e.hist) > 0 {
		return fmt.Errorf("online: history already holds %d decisions", len(e.hist))
	}
	if int64(len(recs)) != e.decision {
		return fmt.Errorf("online: %d history records for %d decisions", len(recs), e.decision)
	}
	maxM := e.maxM
	for i := range recs {
		r := &recs[i]
		if r.Task < 0 || r.Task >= int64(len(e.sys.Tasks)) {
			return fmt.Errorf("online: history record %d names task %d of %d", i, r.Task, len(e.sys.Tasks))
		}
		if r.Seq < 0 || r.Seq >= int64(e.cursor[r.Task]) {
			return fmt.Errorf("online: history record %d names undispatched subtask %d of task %d", i, r.Seq, r.Task)
		}
		if r.Proc < 0 {
			return fmt.Errorf("online: history record %d on processor %d", i, r.Proc)
		}
		sub := e.sys.Subtasks(e.sys.Tasks[r.Task])[r.Seq]
		if sub.Index != r.Index || sub.Deadline() != r.Deadline {
			return fmt.Errorf("online: history record %d is %d/d=%d, subtask %s has d=%d",
				i, r.Index, r.Deadline, sub, sub.Deadline())
		}
		// A shrink before the checkpoint may have retired the processor
		// this decision ran on; the schedule's bound still covers it.
		maxM = max(maxM, r.Proc+1)
	}
	e.maxM = maxM
	// Clip the capacity so the first append copies: the executive never
	// writes into spare capacity the caller still owns.
	e.hist = recs[:len(recs):len(recs)]
	return nil
}
