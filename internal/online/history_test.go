package online

import (
	"fmt"
	"testing"

	"desyncpfair/internal/model"
	"desyncpfair/internal/rat"
)

// TestRunAllocatesNothingPerDecision pins the pointer-free history: once
// warm, a one-quantum Run with no submits records its m decisions without
// a heap allocation per decision — the history's amortized slice growth is
// all that allocates. A per-decision heap object (a schedule assignment, a
// map entry, a formatted string) would cost at least m allocations a run.
func TestRunAllocatesNothingPerDecision(t *testing.T) {
	const m, n, jobs = 8, 32, 200
	ex := New(m, nil)
	for i := range n {
		task, err := ex.Register(fmt.Sprintf("t%d", i), model.W(1, 4)) // Σwt = n/4 = m: every slot is full
		if err != nil {
			t.Fatal(err)
		}
		for j := range int64(jobs) {
			if err := ex.SubmitJob(task, rat.FromInt(4*j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	run := func() {
		if err := ex.Run(ex.Now().Add(rat.One), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for range 8 { // warm the heaps and the timeline up to their steady-state size
		run()
	}
	before := len(ex.History())
	const runs = 400
	allocs := testing.AllocsPerRun(runs, run)
	decisions := float64(len(ex.History())-before) / (runs + 1) // AllocsPerRun adds one warm-up call
	if decisions != m {
		t.Fatalf("%.2f decisions per quantum, want %d", decisions, m)
	}
	if perDecision := allocs / decisions; perDecision > 0 {
		t.Fatalf("%.3f allocations per decision in steady state (%.1f per quantum), want 0", perDecision, allocs)
	}
}

// TestScheduleIsAViewOfHistory: Schedule is rebuilt from the history on
// every call, so reading it never perturbs the executive and two reads
// agree; decision numbers count on from a checkpoint whose history was
// not handed back; RestoreHistory rejects records that do not match the
// restored system.
func TestScheduleIsAViewOfHistory(t *testing.T) {
	ex := New(2, nil)
	a, _ := ex.Register("a", model.W(1, 2))
	b, _ := ex.Register("b", model.W(2, 3))
	for _, task := range []*model.Task{a, b} {
		if err := ex.SubmitJob(task, rat.Zero); err != nil {
			t.Fatal(err)
		}
	}
	if err := ex.Run(rat.New(3, 2), nil, nil); err != nil {
		t.Fatal(err)
	}
	s1, s2 := ex.Schedule(), ex.Schedule()
	if s1 == s2 || s1.Len() != len(ex.History()) || s2.Len() != s1.Len() {
		t.Fatalf("two reads: %p/%d and %p/%d assignments for %d records", s1, s1.Len(), s2, s2.Len(), len(ex.History()))
	}
	for i, asg := range s1.Assignments() {
		r := ex.History()[i]
		if asg.Sub.Task.ID != int(r.Task) || asg.Sub.Index != r.Index || !asg.Finish().Equal(r.Finish) || asg.Decision != i+1 {
			t.Fatalf("assignment %d %s@%s..%s does not match record %+v", i, asg.Sub, asg.Start, asg.Finish(), r)
		}
	}

	restore := func() *Executive {
		re, err := Restore(ex.Checkpoint())
		if err != nil {
			t.Fatal(err)
		}
		return re
	}
	hist := ex.History()
	cont := restore()
	if err := cont.SubmitJob(cont.System().Tasks[0], rat.FromInt(2)); err != nil {
		t.Fatal(err)
	}
	if err := cont.Run(rat.FromInt(4), nil, nil); err != nil {
		t.Fatal(err)
	}
	if len(cont.History()) == 0 {
		t.Fatal("restored executive dispatched nothing")
	}
	for i, asg := range cont.Schedule().Assignments() {
		if want := len(hist) + i + 1; asg.Decision != want {
			t.Fatalf("restored assignment %d is decision %d, want %d", i, asg.Decision, want)
		}
	}
	bad := append([]Record(nil), hist...)
	bad[0].Deadline++
	if err := restore().RestoreHistory(bad); err == nil {
		t.Fatal("RestoreHistory accepted a record with the wrong deadline")
	}
	if err := restore().RestoreHistory(hist[1:]); err == nil {
		t.Fatal("RestoreHistory accepted a history missing a decision")
	}
	re := restore()
	if err := re.RestoreHistory(hist); err != nil {
		t.Fatal(err)
	}
	if got := re.Schedule(); got.Len() != s1.Len() || !got.MaxTardiness().Equal(s1.MaxTardiness()) {
		t.Fatalf("restored schedule has %d assignments, max tardiness %s; want %d, %s",
			got.Len(), got.MaxTardiness(), s1.Len(), s1.MaxTardiness())
	}
}
