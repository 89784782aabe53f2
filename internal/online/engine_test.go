package online_test

import (
	"encoding/json"
	"fmt"
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
	kind      byte    // 'r' register, 's' submit, 'e' early submit, 'a' advance, 'c' checkpoint
	e, p      int64   // register: weight
	pick      int     // submit: task, modulo the registered count
	at        rat.Rat // submit: arrival; advance: target
	earliness int64   // early submit
}

// diffScript draws a random interleaving of registrations, on-time and
// early submissions at mid-slot arrival times, advances to rational
// targets, and checkpoints. Every arrival a satisfies ⌈a⌉ > now whenever
// now is integral, so every released subtask is eligible strictly after
// the last decision instant the executive has already processed — the
// condition under which online dispatch must equal the offline oracle on
// the system it built.
func diffScript(rng *rand.Rand) []diffOp {
	var ops []diffOp
	now := rat.Zero
	for range 30 + rng.Intn(30) {
		switch k := rng.Intn(10); {
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
		default:
			ops = append(ops, diffOp{kind: 'c'})
		}
	}
	return ops
}

// logEntry is one dispatch as the executive reported it, detached from
// Subtask pointers so logs from restored executives compare.
type logEntry struct {
	task          string
	index         int64
	proc, decided int
	start, finish rat.Rat
}

func (l logEntry) String() string {
	return fmt.Sprintf("#%d %s_%d P%d [%s,%s)", l.decided, l.task, l.index, l.proc, l.start, l.finish)
}

// playDiff runs ops on a fresh executive. With restore set, every 'c' op
// round-trips the executive through Checkpoint, JSON and Restore. It
// returns the final executive and the dispatch log of the whole run.
func playDiff(t *testing.T, m int, pol prio.Policy, y sched.YieldFn, ops []diffOp, restore bool) (*online.Executive, []logEntry) {
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
			if ex, err = online.Restore(cp); err != nil {
				t.Fatalf("op %d restore: %v", i, err)
			}
			ex.SetOnDispatch(hook)
		}
	}
	if _, err := ex.Drain(y); err != nil {
		t.Fatal(err)
	}
	return ex, log
}

// TestExecutiveMatchesReference is the executive's differential test: on
// 200 seeded scripts, for every policy (the ablations included) and both
// the uniform and the full-cost yield, the executive's schedule must equal
// the offline oracle's on the system the executive built, assignment for
// assignment. Scripts are also replayed with Checkpoint/Restore mid-stream
// (for the policies a checkpoint can name), and the concatenated dispatch
// log must equal the uninterrupted one decision for decision.
func TestExecutiveMatchesReference(t *testing.T) {
	pols := append(prio.All(), prio.PD2NoGroup{}, prio.PD2NoBBit{})
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(4)
		ops := diffScript(rng)
		yields := map[string]sched.YieldFn{"uniform": gen.UniformYield(seed, 8), "full": sched.FullCost}
		for _, pol := range pols {
			for yname, y := range yields {
				where := fmt.Sprintf("seed %d M=%d %s %s", seed, m, pol.Name(), yname)
				ex, log := playDiff(t, m, pol, y, ops, false)
				ref, err := core.RunDVQReference(ex.System(), core.DVQOptions{M: m, Policy: pol, Yield: y})
				if err != nil {
					t.Fatalf("%s: reference: %v", where, err)
				}
				if !sched.Equal(ex.Schedule(), ref) || ex.Schedule().Len() != ref.Len() {
					for _, d := range sched.Diff(ex.Schedule(), ref) {
						t.Errorf("%s: %s", where, d)
					}
					t.Fatalf("%s: executive diverges from RunDVQReference", where)
				}
				if prio.ByName(pol.Name()) == nil {
					continue // Restore resolves policies by name; the ablations have none
				}
				_, relog := playDiff(t, m, pol, y, ops, true)
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
