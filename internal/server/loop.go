package server

import (
	"errors"
	"fmt"

	"desyncpfair/internal/admission"
	"desyncpfair/internal/model"
	"desyncpfair/internal/obs"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/wal"
)

// ErrRingFull reports that a tenant's submit ring is at capacity: the
// single-writer loop is applying commands as fast as it can and the
// bounded MPSC ring refuses to queue more. It maps to HTTP 429 — explicit
// backpressure, distinct from a failure. Clients retry; load generators
// count it separately from errors.
var ErrRingFull = errors.New("server: tenant submit ring full")

// defaultSubmitRing is the per-tenant command-ring capacity when none is
// configured (Options.SubmitRing / pfaird -submit-ring).
const defaultSubmitRing = 256

// cmdKind discriminates the commands the tenant loop executes.
type cmdKind int

const (
	cmdSubmit cmdKind = iota
	cmdSubmitBatch
	cmdRegister
	cmdUnregister
	cmdAdvance
	cmdDrain
	cmdResize
	// cmdCtl runs an arbitrary closure on the loop goroutine with the
	// loop-owned state quiesced (checkpointing, the pre-delete flush).
	// Control commands arrive on their own unbuffered channel, never the
	// ring, so they cannot be starved by ring capacity.
	cmdCtl
	// cmdStop terminates the loop. Sent exactly once, by finishClose.
	cmdStop
)

// command is one queued request for a tenant's event loop. The HTTP
// handler validates the wire input, enqueues the command, and blocks on
// done; the loop journals, applies, and completes it. done has capacity
// 1 so the loop never blocks on a completion send.
type command struct {
	kind cmdKind

	submit    SubmitJobRequest   // cmdSubmit
	batch     []SubmitJobRequest // cmdSubmitBatch
	name      string             // cmdRegister / cmdUnregister
	w         model.Weight       // cmdRegister
	until, by string             // cmdAdvance
	resizeM   int                // cmdResize: target processor count
	drain     bool               // cmdResize: queue an infeasible shrink
	fn        func()             // cmdCtl

	done chan cmdResult
}

// cmdResult carries a command's outcome back to the enqueuing handler.
type cmdResult struct {
	submit SubmitJobResponse
	subs   SubmitJobsResponse
	adv    AdvanceResponse
	dec    admission.Decision
	resize ResizeResponse
	commit wal.Commit
	err    error
}

// journalHooks bundles the durability callbacks; the tenant holds them
// behind an atomic pointer so SetJournal needs no lock against the loop.
type journalHooks struct {
	append func(wal.Record) (wal.Commit, error)
	batch  func([]wal.Record) (wal.Commit, error)
	fail   func(error)
}

// exec enqueues c on the submit ring and waits for the loop to complete
// it. The enqueue is non-blocking: a full ring is reported as ErrRingFull
// (HTTP 429) instead of stalling the handler, which both bounds the
// tenant's queueing and — together with the closing gate — guarantees no
// sender is ever left stranded on a ring nobody drains.
func (t *Tenant) exec(c *command) cmdResult {
	c.done = make(chan cmdResult, 1)
	t.ringMu.RLock()
	if t.closing.Load() {
		t.ringMu.RUnlock()
		return cmdResult{err: errTenantGone}
	}
	select {
	case t.ring <- c:
		t.ringMu.RUnlock()
	default:
		t.ringMu.RUnlock()
		return cmdResult{err: ErrRingFull}
	}
	return <-c.done
}

// ctlExec runs c on the loop via the control channel (checkpoints and the
// close protocol; not subject to ring capacity). If the loop has already
// stopped, it reports errTenantGone instead of blocking forever.
func (t *Tenant) ctlExec(c *command) cmdResult {
	c.done = make(chan cmdResult, 1)
	select {
	case t.ctl <- c:
		return <-c.done
	case <-t.closed:
		return cmdResult{err: errTenantGone}
	}
}

// runLoop is the tenant's single-writer event loop: the only goroutine
// that touches the executive, the admission controller, the task map, and
// the dispatch log after start(). It drains the ring in opportunistic
// batches (coalescing consecutive submits into one journal frame group),
// applies each command, and publishes an immutable snapshot that every
// read path — /metrics, Info, stream replay, recovery verification —
// loads without synchronizing with this goroutine. The ring is biased
// over the control channel so a control barrier observes a fully drained
// backlog.
func (t *Tenant) runLoop() {
	batch := make([]*command, 0, 64)
	for {
		batch = batch[:0]
		var first *command
		select {
		case first = <-t.ring:
		default:
			select {
			case first = <-t.ring:
			case first = <-t.ctl:
			}
		}
		batch = append(batch, first)
		if first.kind != cmdCtl && first.kind != cmdStop {
			for len(batch) < cap(batch) {
				select {
				case c := <-t.ring:
					batch = append(batch, c)
				default:
					goto drained
				}
			}
		}
	drained:
		for i := 0; i < len(batch); i++ {
			c := batch[i]
			if c.kind == cmdSubmit {
				j := i
				for j+1 < len(batch) && batch[j+1].kind == cmdSubmit {
					j++
				}
				t.processSubmitRun(batch[i : j+1])
				i = j
				continue
			}
			if t.process(c) {
				return
			}
		}
	}
}

// process executes one non-submit command and reports whether the loop
// should stop.
func (t *Tenant) process(c *command) (stop bool) {
	switch c.kind {
	case cmdSubmitBatch:
		var res cmdResult
		res.subs, res.commit, res.err = t.applySubmitBatch(c.batch)
		t.finish(c, res)
	case cmdRegister:
		var res cmdResult
		res.dec, res.commit, res.err = t.applyRegister(c.name, c.w)
		t.finish(c, res)
	case cmdUnregister:
		var res cmdResult
		res.commit, res.err = t.applyUnregister(c.name)
		t.finish(c, res)
	case cmdAdvance:
		var res cmdResult
		res.adv, res.commit, res.err = t.applyAdvance(c.until, c.by)
		t.finish(c, res)
	case cmdDrain:
		var res cmdResult
		res.adv, res.commit, res.err = t.applyDrain()
		t.finish(c, res)
	case cmdResize:
		var res cmdResult
		res.resize, res.commit, res.err = t.applyResize(c.resizeM, c.drain)
		t.finish(c, res)
	case cmdCtl:
		c.fn()
		c.done <- cmdResult{}
	case cmdStop:
		close(t.closed)
		// Commands that slipped into the ring before the closing gate and
		// were not flushed fail cleanly rather than hang their senders.
		for {
			select {
			case q := <-t.ring:
				q.done <- cmdResult{err: errTenantGone}
			default:
				c.done <- cmdResult{}
				return true
			}
		}
	}
	return false
}

// finish flushes buffered dispatch records, publishes the post-command
// snapshot, wakes stream followers if the log grew, and completes c.
func (t *Tenant) finish(c *command, res cmdResult) {
	t.flushAfterApply()
	if t.publish() {
		t.pingSubs()
	}
	c.done <- res
}

// flushAfterApply journals the decisions the last apply made as one frame
// group of dispatch records formatted from the history (they follow their
// command record in the journal, preceding the next command).
func (t *Tenant) flushAfterApply() {
	hist := t.ex.History()
	if t.journaled == len(hist) {
		return
	}
	if h := t.hooks.Load(); h != nil {
		recs := t.pendDisp[:0]
		for seq := t.journaled; seq < len(hist); seq++ {
			r := &hist[seq]
			recs = append(recs, wal.Record{
				Op: wal.OpDispatch, Tenant: t.id,
				Name: t.names[r.Task], DSeq: int64(seq), Index: r.Index, Finish: r.Finish.String(),
			})
		}
		// Dispatch records are verification-only: recovery regenerates
		// decisions by replaying commands and checks them against these.
		// An append error here already wedged the log, so the following
		// command will fail loudly; nothing to do with it now.
		_, _ = h.batch(recs)
		t.pendDisp = recs[:0]
	}
	t.journaled = len(hist)
}

// processSubmitRun executes a maximal run of consecutive single submits
// drained from the ring in one go: each validates independently against
// the current state (submits only add pending work and never move virtual
// time, so independent validity implies sequential validity — the same
// argument the batch endpoint relies on), the valid ones journal as ONE
// frame group, and all of them share one commit and therefore one fsync.
// This is where the MPSC ring buys its throughput: under concurrent
// clients with FsyncEvery=1, a drained run of N submits costs one
// buffered write and one group-commit wait instead of N.
func (t *Tenant) processSubmitRun(run []*command) {
	if len(run) == 1 {
		// The common sequential case keeps the exact single-submit path
		// (and its pinned trace-event sequence).
		var res cmdResult
		res.submit, res.commit, res.err = t.applySubmit(run[0].submit)
		t.finish(run[0], res)
		return
	}
	type val struct {
		c    *command
		task *model.Task
		when rat.Rat
	}
	valid := make([]val, 0, len(run))
	recs := make([]wal.Record, 0, len(run))
	// Keyed retries never reach the group journal: a key already applied
	// answers from the idempotency memory, and a key repeated *within*
	// this drained run defers to the singleton path after the run applies
	// (which then dedupes against the first instance, or re-validates if
	// the first instance failed).
	var deferred []*command
	runKeys := map[string]struct{}{}
	for _, c := range run {
		if resp, seen := t.idemSeen(c.submit.Key); seen {
			c.done <- cmdResult{submit: resp}
			continue
		}
		if c.submit.Key != "" {
			if _, dup := runKeys[c.submit.Key]; dup {
				deferred = append(deferred, c)
				continue
			}
			runKeys[c.submit.Key] = struct{}{}
		}
		task, when, err := t.validateSubmit(c.submit)
		if err != nil {
			c.done <- cmdResult{err: err}
			continue
		}
		valid = append(valid, val{c, task, when})
		recs = append(recs, wal.Record{
			Op: wal.OpJobSubmit, Tenant: t.id,
			Name: c.submit.Task, At: when.String(), Earliness: c.submit.Earliness,
			Key: c.submit.Key,
		})
	}
	if len(valid) == 0 {
		for _, c := range deferred {
			var res cmdResult
			res.submit, res.commit, res.err = t.applySubmit(c.submit)
			t.finish(c, res)
		}
		return
	}
	var commit wal.Commit
	h := t.hooks.Load()
	if h != nil {
		c, jerr := h.batch(recs)
		if jerr != nil {
			t.traceBegin(wal.OpJobSubmit, fmt.Sprintf("run[%d]", len(valid)), "")
			t.traceFail(obs.StageWALAppend, jerr)
			for _, v := range valid {
				v.c.done <- cmdResult{err: jerr}
			}
			for _, c := range deferred {
				c.done <- cmdResult{err: jerr}
			}
			return
		}
		commit = c
	}
	for _, v := range valid {
		t.traceBegin(wal.OpJobSubmit, v.c.submit.Task, v.when.String())
		if h != nil {
			t.traceStage(obs.StageWALAppend)
		}
		if err := t.applySubmitJob(v.task, v.when, v.c.submit.Earliness); err != nil {
			// Unreachable after pre-validation; the record is journaled
			// but not applied, so wedge — same contract as the batch
			// endpoint.
			if h != nil && h.fail != nil {
				h.fail(err)
			}
			t.traceFail(obs.StageApply, err)
			v.c.done <- cmdResult{err: err}
			continue
		}
		t.traceStage(obs.StageApply)
		resp := SubmitJobResponse{At: v.when.String(), Pending: t.ex.Pending()}
		t.idemRemember(v.c.submit.Key, resp)
		v.c.done <- cmdResult{submit: resp, commit: commit}
	}
	for _, c := range deferred {
		var res cmdResult
		res.submit, res.commit, res.err = t.applySubmit(c.submit)
		c.done <- res
	}
	t.flushAfterApply()
	if t.publish() {
		t.pingSubs()
	}
}

// --- close protocol ---
//
// Deleting a tenant must journal its OpTenantDelete *after* every command
// already accepted into the ring (journal order is replay order), and no
// command may be accepted afterwards. The sequence:
//
//  1. beginClose wins the closing CAS and passes a ringMu write barrier:
//     after it returns, every in-flight exec has either enqueued or seen
//     closing and bailed — the ring can only shrink.
//  2. flushBacklog runs a control command that drains the ring to empty
//     through the normal paths, so everything accepted is journaled and
//     applied.
//  3. The caller journals the delete record (under its own locks).
//  4. finishClose sends cmdStop; the loop closes t.closed (ending streams
//     and unblocking control senders) and exits.
//
// abortClose reopens the gate if step 3 fails — the tenant then remains,
// fully consistent, as if the delete never happened.

func (t *Tenant) beginClose() bool {
	if !t.closing.CompareAndSwap(false, true) {
		return false
	}
	t.ringMu.Lock()
	//lint:ignore SA2001 write-lock barrier: flushes readers mid-enqueue.
	t.ringMu.Unlock()
	return true
}

func (t *Tenant) flushBacklog() {
	t.ctlExec(&command{kind: cmdCtl, fn: func() {
		for {
			select {
			case c := <-t.ring:
				if c.kind == cmdSubmit {
					t.processSubmitRun([]*command{c})
				} else {
					t.process(c)
				}
			default:
				return
			}
		}
	}})
}

func (t *Tenant) abortClose() {
	t.closing.Store(false)
}

func (t *Tenant) finishClose() {
	t.ctlExec(&command{kind: cmdStop})
}

// Close marks the tenant deleted: its backlog is flushed, pending streams
// end, the loop stops, and subsequent commands fail errTenantGone.
// Idempotent; concurrent callers wait for the first to finish.
func (t *Tenant) Close() {
	if !t.beginClose() {
		<-t.closed
		return
	}
	t.flushBacklog()
	t.finishClose()
}

// Closed returns a channel closed when the tenant is deleted.
func (t *Tenant) Closed() <-chan struct{} { return t.closed }
