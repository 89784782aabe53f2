package prio

import (
	"testing"
	"testing/quick"

	"desyncpfair/internal/model"
)

var (
	epdf = EPDF{}
	pd2  = PD2{}
	pd   = PD{}
	pf   = PF{}
)

func sub(w model.Weight, i int64) *model.Subtask {
	return &model.Subtask{Task: &model.Task{W: w}, Index: i}
}

func subTheta(w model.Weight, i, th int64) *model.Subtask {
	return &model.Subtask{Task: &model.Task{W: w}, Index: i, Theta: th}
}

func TestEPDFIsDeadlineOnly(t *testing.T) {
	a := sub(model.W(1, 2), 1) // d = 2
	b := sub(model.W(1, 3), 1) // d = 3
	if !Prec(epdf, a, b) || Prec(epdf, b, a) {
		t.Error("EPDF should order d=2 before d=3")
	}
	c := sub(model.W(3, 4), 1) // d = 2, b-bit 1
	if epdf.Cmp(a, c) != 0 {
		t.Error("EPDF should consider equal deadlines equal priority")
	}
}

func TestPD2BBitTieBreak(t *testing.T) {
	// Both deadlines 2; weight 3/4 has b(T_1)=1, weight 1/2 has b(T_1)=0.
	heavyOverlap := sub(model.W(3, 4), 1)
	noOverlap := sub(model.W(1, 2), 1)
	if !Prec(pd2, heavyOverlap, noOverlap) {
		t.Error("PD2 should prefer b=1 on a deadline tie")
	}
	if Prec(pd2, noOverlap, heavyOverlap) {
		t.Error("PD2 ordering should be antisymmetric")
	}
}

func TestPD2GroupDeadlineTieBreak(t *testing.T) {
	// Two subtasks with d = 2 and b = 1 but different group deadlines:
	// wt 7/9: D(T_1) = 5; wt 3/4: D(T_1) = 4. Later group deadline wins.
	longer := sub(model.W(7, 9), 1)
	shorter := sub(model.W(3, 4), 1)
	if longer.Deadline() != 2 || shorter.Deadline() != 2 {
		t.Fatal("test setup: deadlines differ")
	}
	if longer.GroupDeadline() != 5 || shorter.GroupDeadline() != 4 {
		t.Fatalf("test setup: group deadlines %d,%d", longer.GroupDeadline(), shorter.GroupDeadline())
	}
	if !Prec(pd2, longer, shorter) {
		t.Error("PD2 should prefer the later group deadline")
	}
}

func TestPD2EqualPriority(t *testing.T) {
	a := sub(model.W(3, 4), 1)
	b := sub(model.W(3, 4), 1)
	b.Task.ID = 1
	if pd2.Cmp(a, b) != 0 {
		t.Error("identical windows should be equal priority under PD2")
	}
	// Order still deterministically breaks the tie by task ID.
	if !Order(pd2, a, b) || Order(pd2, b, a) {
		t.Error("Order should break ties by task ID")
	}
}

func TestPDRefinesPD2(t *testing.T) {
	f := func(e1, p1, e2, p2 uint8, i1, i2 uint8) bool {
		a := sub(wclamp(e1, p1), int64(i1%20)+1)
		b := sub(wclamp(e2, p2), int64(i2%20)+1)
		c2 := pd2.Cmp(a, b)
		cd := pd.Cmp(a, b)
		if c2 < 0 && cd >= 0 {
			return false
		}
		if c2 > 0 && cd <= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestPDHeavyBeforeLightOnFullTie(t *testing.T) {
	// Construct a PD² tie between a heavy and a light subtask: both b = 0
	// and equal deadlines. wt 1/2 (heavy, d=2, b=0) vs wt 2/4 is same task;
	// use wt 1/2 vs light wt 2/4? 2/4 reduces. Use i=1 of 1/2 (d=2, b=0)
	// and i=1 of 2/4-like light... light with d=2, b=0 needs wt=1/2 again.
	// Instead use i=2 of light 2/3 is heavy. Take d=6, b=0: heavy 1/2 i=3
	// (d=6, b=0) vs light 1/3 i=2 (d=6, b=0).
	heavy := sub(model.W(1, 2), 3)
	light := sub(model.W(1, 3), 2)
	if heavy.Deadline() != 6 || light.Deadline() != 6 || heavy.BBit() != 0 || light.BBit() != 0 {
		t.Fatal("test setup wrong")
	}
	if pd2.Cmp(heavy, light) != 0 {
		t.Fatal("expected PD2 tie")
	}
	if !Prec(pd, heavy, light) {
		t.Error("PD should prefer heavy on a full PD2 tie")
	}
}

func TestPFMatchesPD2OnDeadlineAndBit(t *testing.T) {
	a := sub(model.W(3, 4), 1)
	b := sub(model.W(1, 2), 1)
	if !Prec(pf, a, b) {
		t.Error("PF should prefer b=1 on a deadline tie")
	}
}

func TestPFChainComparison(t *testing.T) {
	// wt 7/9 vs wt 3/4, both d=2, b=1. Chains:
	//   7/9: d(T_2)=3, b=1; d(T_3)=4, b=1; d(T_4)=6 …
	//   3/4: d(T_2)=3, b=1; d(T_3)=4, b=0 → chain decided at step 3:
	// at index+2 both have d=4; bits differ (7/9 has b=1, 3/4 has b=0), so
	// 7/9 wins — matching PD² (group deadlines 5 vs 4).
	a := sub(model.W(7, 9), 1)
	b := sub(model.W(3, 4), 1)
	if !Prec(pf, a, b) {
		t.Error("PF chain comparison should prefer 7/9's T_1")
	}
	if got, want := pf.Cmp(a, b), pd2.Cmp(a, b); got != want {
		t.Errorf("PF = %d, PD2 = %d; should agree on heavy tasks", got, want)
	}
}

func TestPFEqualChains(t *testing.T) {
	a := sub(model.W(3, 4), 1)
	b := sub(model.W(3, 4), 1)
	if pf.Cmp(a, b) != 0 {
		t.Error("identical chains should be equal priority")
	}
	// Same weight, different phase within the period: indices 1 and 4 of
	// wt 3/4 have deadlines 2 and 6 — not a tie; shift θ to align: T_4 with
	// θ = -4 is not allowed, so compare T_1 (θ=4) vs T_4 (θ=0): both d = 6.
	x := subTheta(model.W(3, 4), 1, 4)
	y := sub(model.W(3, 4), 4)
	if x.Deadline() != y.Deadline() {
		t.Fatal("setup: deadlines differ")
	}
	if pf.Cmp(x, y) != 0 {
		t.Error("same-weight same-phase chains should tie")
	}
}

// PF and PD² agree whenever both decide strictly, for heavy tasks — the
// group deadline is a closed form for the chain comparison.
func TestPropPFAgreesWithPD2OnHeavy(t *testing.T) {
	f := func(e1, p1, e2, p2, i1, i2 uint8) bool {
		w1, w2 := wclamp(e1, p1), wclamp(e2, p2)
		if !w1.IsHeavy() || !w2.IsHeavy() || w1.E == w1.P || w2.E == w2.P {
			return true
		}
		a := sub(w1, int64(i1%20)+1)
		b := sub(w2, int64(i2%20)+1)
		pf, pd2 := pf.Cmp(a, b), pd2.Cmp(a, b)
		if pd2 != 0 && pf != 0 && pf != pd2 {
			return false
		}
		// When PD² decides strictly via deadline or b-bit, PF must agree.
		if a.Deadline() != b.Deadline() || a.BBit() != b.BBit() {
			return pf == pd2
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// All policies must be antisymmetric and respect the deadline primary key.
func TestPropPolicyLaws(t *testing.T) {
	for _, p := range All() {
		p := p
		f := func(e1, p1, e2, p2, i1, i2, th1, th2 uint8) bool {
			a := subTheta(wclamp(e1, p1), int64(i1%20)+1, int64(th1%5))
			b := subTheta(wclamp(e2, p2), int64(i2%20)+1, int64(th2%5))
			if p.Cmp(a, b) != -p.Cmp(b, a) {
				return false
			}
			if p.Cmp(a, a) != 0 {
				return false
			}
			if a.Deadline() < b.Deadline() && !Prec(p, a, b) {
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}

// Order must be a strict total order (irreflexive, antisymmetric, total).
func TestPropOrderTotal(t *testing.T) {
	for _, p := range All() {
		p := p
		f := func(e1, p1, e2, p2, i1, i2 uint8) bool {
			a := sub(wclamp(e1, p1), int64(i1%20)+1)
			b := sub(wclamp(e2, p2), int64(i2%20)+1)
			b.Task.ID = 1
			ab, ba := Order(p, a, b), Order(p, b, a)
			if ab == ba { // distinct subtasks: exactly one direction
				return false
			}
			return !Order(p, a, a)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"EPDF", "PF", "PD", "PD2", "PD2-noD", "PD2-nob"} {
		p := ByName(name)
		if p == nil || p.Name() != name {
			t.Errorf("ByName(%q) = %v", name, p)
		}
	}
	if ByName("nope") != nil {
		t.Error("unknown name should return nil")
	}
	if ByName("pd2").Name() != "PD2" {
		t.Error("lowercase alias broken")
	}
}

func wclamp(e, p uint8) model.Weight {
	E, P := int64(e%16)+1, int64(p%16)+1
	if E > P {
		E, P = P, E
	}
	return model.Weight{E: E, P: P}
}

// PF strictly refines PD² on light tasks: PD²'s tie-break chain stops at
// the group deadline (defined 0 for light tasks) while PF keeps comparing
// successor windows. The pair below ties under PD² but not under PF.
func TestPFRefinesPD2OnLightTasks(t *testing.T) {
	a := sub(model.W(2, 5), 1) // d=3, b=1, light ⇒ D=0
	b := sub(model.W(3, 7), 1) // d=3, b=1, light ⇒ D=0
	if a.Deadline() != 3 || b.Deadline() != 3 || a.BBit() != 1 || b.BBit() != 1 {
		t.Fatal("setup wrong")
	}
	if pd2.Cmp(a, b) != 0 {
		t.Fatal("expected PD2 tie")
	}
	// Successors: 2/5's T_2 has d=5, b=0; 3/7's T_2 has d=5, b=1 → PF
	// prefers 3/7's T_1.
	if !Prec(pf, b, a) {
		t.Errorf("PF should order 3/7 before 2/5 (Cmp=%d)", pf.Cmp(b, a))
	}
}
