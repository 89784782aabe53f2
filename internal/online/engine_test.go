package online_test

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"desyncpfair/internal/core"
	"desyncpfair/internal/gen"
	"desyncpfair/internal/model"
	"desyncpfair/internal/online"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/sched"
)

// Submitting jobs exactly at their period boundaries reproduces the
// synchronous periodic window pattern, and the executive's dispatch matches
// the offline DVQ oracle exactly.
func TestPeriodicSubmissionMatchesOfflineDVQ(t *testing.T) {
	weights := []model.Weight{model.W(1, 2), model.W(3, 4), model.W(1, 4), model.W(1, 2)}
	const m, horizon = 2, 12

	ex := online.New(m, nil)
	tasks := make([]*model.Task, len(weights))
	for i, w := range weights {
		task, err := ex.Register(string(rune('A'+i)), w)
		if err != nil {
			t.Fatal(err)
		}
		tasks[i] = task
	}
	y := gen.UniformYield(17, 8)
	// Submit each task's jobs at its period boundaries, advancing time.
	for slot := int64(0); slot < horizon; slot++ {
		for i, w := range weights {
			if slot%w.P == 0 {
				if err := ex.SubmitJob(tasks[i], rat.FromInt(slot)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := ex.Run(rat.FromInt(slot+1), yieldByLabel(y), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ex.Drain(yieldByLabel(y)); err != nil {
		t.Fatal(err)
	}
	if err := ex.System().Validate(); err != nil {
		t.Fatalf("generated system invalid: %v", err)
	}
	if err := ex.Schedule().ValidateDVQ(); err != nil {
		t.Fatal(err)
	}

	// Offline oracle on the equivalent periodic system.
	ref := model.Periodic(weights, horizon)
	refSched, err := core.RunDVQReference(ref, core.DVQOptions{M: m, Yield: yieldByLabel(y)})
	if err != nil {
		t.Fatal(err)
	}
	// Compare per-subtask start times through (task name, index) keys.
	refStarts := map[string]rat.Rat{}
	for _, a := range refSched.Assignments() {
		refStarts[a.Sub.String()] = a.Start
	}
	for _, a := range ex.Schedule().Assignments() {
		want, ok := refStarts[a.Sub.String()]
		if !ok {
			t.Fatalf("online dispatched %s, absent offline", a.Sub)
		}
		if !a.Start.Equal(want) {
			t.Errorf("%s online at %s, offline at %s", a.Sub, a.Start, want)
		}
	}
	if ex.Schedule().Len() != refSched.Len() {
		t.Errorf("dispatched %d, offline %d", ex.Schedule().Len(), refSched.Len())
	}
}

// yieldByLabel makes a yield function keyed by the subtask's (name, index)
// label so online and offline runs (distinct Subtask pointers and task IDs)
// see identical costs.
func yieldByLabel(base sched.YieldFn) sched.YieldFn {
	type key struct {
		name string
		idx  int64
	}
	memo := map[key]rat.Rat{}
	return func(s *model.Subtask) rat.Rat {
		k := key{s.Task.Name, s.Index}
		if c, ok := memo[k]; ok {
			return c
		}
		// Derive deterministically from the label, not the pointer: rehash
		// through a fixed fake subtask identity.
		fake := &model.Subtask{Task: &model.Task{ID: int(k.name[0])}, Index: k.idx}
		c := base(fake)
		memo[k] = c
		return c
	}
}

// diffOp is one step of a differential script.
type diffOp struct {
	kind      byte    // 'r' register, 's' submit, 'e' early submit, 'a' advance, 'c' checkpoint, 'z' resize round trip
	e, p      int64   // register: weight
	pick      int     // submit: task, modulo the registered count
	at        rat.Rat // submit: arrival; advance: target
	earliness int64   // early submit
}

// diffScript draws a random interleaving of registrations, on-time and
// early submissions at mid-slot arrival times, advances to rational
// targets, checkpoints, and resize round trips. Every arrival a satisfies
// ⌈a⌉ > now whenever now is integral, so every released subtask is
// eligible strictly after the last decision instant the executive has
// already processed — the condition under which online dispatch must
// equal the offline oracle on the system it built. With resize set,
// resize round trips (grow by one processor, shrink straight back) are
// drawn too, only at integral times: there the grown processor is free
// exactly at now, so the round trip changes no start time, only which
// processor label the shrink keeps. Without it the script draws exactly
// what it drew before resize round trips existed.
func diffScript(rng *rand.Rand, resize bool) []diffOp {
	kinds := 10
	if resize {
		kinds = 11
	}
	var ops []diffOp
	now := rat.Zero
	for range 30 + rng.Intn(30) {
		switch k := rng.Intn(kinds); {
		case k < 2:
			p := int64(2 + rng.Intn(11))
			ops = append(ops, diffOp{kind: 'r', e: 1 + rng.Int63n(p), p: p})
		case k < 6:
			j := int64(rng.Intn(9))
			if j == 0 && now.IsInt() {
				j = 1
			}
			op := diffOp{kind: 's', pick: rng.Intn(64), at: now.Add(rat.New(j, 4))}
			if k == 5 {
				op.kind, op.earliness = 'e', rng.Int63n(4)
			}
			ops = append(ops, op)
		case k < 9:
			now = now.Add(rat.New(int64(1+rng.Intn(12)), 4))
			ops = append(ops, diffOp{kind: 'a', at: now})
		case k < 10:
			ops = append(ops, diffOp{kind: 'c'})
		default:
			if now.IsInt() {
				ops = append(ops, diffOp{kind: 'z'})
			}
		}
	}
	return ops
}

// logEntry is one dispatch as the executive reported it, detached from
// Subtask pointers so logs from restored executives compare.
type logEntry struct {
	task          string
	index         int64
	proc          int
	decided       int64
	start, finish rat.Rat
}

func (l logEntry) String() string {
	return fmt.Sprintf("#%d %s_%d P%d [%s,%s)", l.decided, l.task, l.index, l.proc, l.start, l.finish)
}

// playDiff runs ops on a fresh executive. With restore set, every 'c' op
// round-trips the executive through Checkpoint, JSON and Restore, and
// hands the history back with RestoreHistory. check, when non-nil, reads
// the executive mid-script: after every resize round trip and every
// restore. It returns the final executive and the dispatch log of the
// whole run.
func playDiff(t *testing.T, m int, pol prio.Policy, y sched.YieldFn, ops []diffOp, restore bool, check func(op int, ex *online.Executive)) (*online.Executive, []logEntry) {
	t.Helper()
	var log []logEntry
	hook := func(d online.Dispatch) {
		log = append(log, logEntry{d.Sub.Task.Name, d.Sub.Index, d.Proc, d.Decision, d.Start, d.Finish})
	}
	ex := online.New(m, pol)
	ex.SetOnDispatch(hook)
	for i, op := range ops {
		tasks := ex.System().Tasks
		switch op.kind {
		case 'r':
			_, _ = ex.Register(fmt.Sprintf("t%d", len(tasks)), model.W(op.e, op.p)) // admission may refuse
		case 's', 'e':
			if len(tasks) == 0 {
				continue
			}
			task := tasks[op.pick%len(tasks)]
			var err error
			if op.kind == 's' {
				err = ex.SubmitJob(task, op.at)
			} else {
				err = ex.SubmitJobEarly(task, op.at, op.earliness)
			}
			if err != nil {
				t.Fatalf("op %d submit: %v", i, err)
			}
		case 'a':
			if err := ex.Run(op.at, y, nil); err != nil {
				t.Fatalf("op %d run: %v", i, err)
			}
		case 'z':
			if err := ex.Resize(m + 1); err != nil {
				t.Fatalf("op %d grow: %v", i, err)
			}
			if err := ex.Resize(m); err != nil {
				t.Fatalf("op %d shrink: %v", i, err)
			}
			if check != nil {
				check(i, ex)
			}
		case 'c':
			if !restore {
				continue
			}
			raw, err := json.Marshal(ex.Checkpoint())
			if err != nil {
				t.Fatal(err)
			}
			var cp online.Checkpoint
			if err := json.Unmarshal(raw, &cp); err != nil {
				t.Fatal(err)
			}
			hist := ex.History()
			if ex, err = online.Restore(cp); err != nil {
				t.Fatalf("op %d restore: %v", i, err)
			}
			if err := ex.RestoreHistory(hist); err != nil {
				t.Fatalf("op %d restore history: %v", i, err)
			}
			ex.SetOnDispatch(hook)
			if check != nil {
				check(i, ex)
			}
		}
	}
	if _, err := ex.Drain(y); err != nil {
		t.Fatal(err)
	}
	return ex, log
}

// sameSchedule reports how got differs from the reference schedule want
// over the same system: every assignment of got must match want's start
// and, if it is one of got's first labelled decisions, its processor; and
// want must hold no other assignment starting at or before upTo (nil: no
// other assignment at all).
func sameSchedule(got, want *sched.Schedule, labelled int, upTo *rat.Rat) []string {
	var diffs []string
	for _, a := range got.Assignments() {
		b := want.Of(a.Sub)
		if b == nil || !a.Start.Equal(b.Start) || (a.Decision <= labelled && a.Proc != b.Proc) {
			diffs = append(diffs, sched.Difference{Sub: a.Sub, A: a, B: b}.String())
		}
	}
	n := 0
	for _, b := range want.Assignments() {
		if upTo == nil || b.Start.LessEq(*upTo) {
			n++
		}
	}
	if n != got.Len() {
		diffs = append(diffs, fmt.Sprintf("%d assignments, reference has %d", got.Len(), n))
	}
	return diffs
}

// TestExecutiveMatchesReference is the executive's differential test: on
// 200 seeded scripts, for every policy (the ablations included) and both
// the uniform and the full-cost yield, the executive's schedule must equal
// the offline oracle's on the system the executive built, assignment for
// assignment. Even seeds' scripts include resize round trips, which
// permute processor labels but no start time, so processors are compared
// only for the decisions made before the first round trip; odd seeds'
// scripts have none and compare every processor. Scripts are also replayed with Checkpoint/Restore mid-stream: the
// concatenated dispatch log must equal the uninterrupted one decision for
// decision, and Schedule — read mid-script after every resize and every
// restore, and at the end — must equal the oracle on the decisions made so
// far.
func TestExecutiveMatchesReference(t *testing.T) {
	pols := append(prio.All(), prio.PD2NoGroup{}, prio.PD2NoBBit{})
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(4)
		ops := diffScript(rng, seed%2 == 0)
		yields := map[string]sched.YieldFn{"uniform": gen.UniformYield(seed, 8), "full": sched.FullCost}
		for _, pol := range pols {
			for yname, y := range yields {
				where := fmt.Sprintf("seed %d M=%d %s %s", seed, m, pol.Name(), yname)
				labelled := math.MaxInt // decisions made before the first resize round trip
				compare := func(when string, ex *online.Executive, upTo *rat.Rat) {
					ref, err := core.RunDVQReference(ex.System(), core.DVQOptions{M: m, Policy: pol, Yield: y})
					if err != nil {
						t.Fatalf("%s: reference: %v", where, err)
					}
					if diffs := sameSchedule(ex.Schedule(), ref, labelled, upTo); len(diffs) > 0 {
						for _, d := range diffs {
							t.Errorf("%s %s: %s", where, when, d)
						}
						t.Fatalf("%s %s: executive diverges from RunDVQReference", where, when)
					}
				}
				check := func(op int, ex *online.Executive) {
					if ops[op].kind == 'z' && labelled == math.MaxInt {
						labelled = len(ex.History()) // a resize dispatches nothing
					}
					now := ex.Now()
					compare(fmt.Sprintf("after op %d (%c)", op, ops[op].kind), ex, &now)
				}
				ex, log := playDiff(t, m, pol, y, ops, false, check)
				compare("at the end", ex, nil)
				labelled = math.MaxInt
				reex, relog := playDiff(t, m, pol, y, ops, true, check)
				compare("at the end with Checkpoint/Restore", reex, nil)
				if len(relog) != len(log) {
					t.Fatalf("%s: %d dispatches with Checkpoint/Restore, %d without", where, len(relog), len(log))
				}
				for i := range log {
					if a, b := relog[i], log[i]; a.task != b.task || a.index != b.index || a.proc != b.proc ||
						a.decided != b.decided || !a.start.Equal(b.start) || !a.finish.Equal(b.finish) {
						t.Fatalf("%s: dispatch %d is %s with Checkpoint/Restore, %s without", where, i, a, b)
					}
				}
			}
		}
	}
}
