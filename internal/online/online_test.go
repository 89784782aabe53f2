package online

import (
	"math/rand"
	"testing"

	"desyncpfair/internal/gen"
	"desyncpfair/internal/model"
	"desyncpfair/internal/rat"
)

func TestRegisterAdmissionControl(t *testing.T) {
	ex := New(2, nil)
	if _, err := ex.Register("a", model.W(1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Register("b", model.W(1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Register("c", model.W(1, 100)); err == nil {
		t.Error("utilization 2 + 1/100 on M=2 accepted")
	}
	if _, err := ex.Register("bad", model.W(3, 2)); err == nil {
		t.Error("invalid weight accepted")
	}
}

func TestNewPanicsOnBadM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(0, nil)
}

// Sporadic arrivals: jobs submitted late produce right-shifted (IS) windows
// and the Theorem 3 bound still holds.
func TestSporadicArrivalsBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		ex := New(2, nil)
		weights := []model.Weight{model.W(1, 2), model.W(1, 2), model.W(1, 3), model.W(2, 3)}
		tasks := make([]*model.Task, len(weights))
		for i, w := range weights {
			task, err := ex.Register(string(rune('A'+i)), w)
			if err != nil {
				t.Fatal(err)
			}
			tasks[i] = task
		}
		y := gen.UniformYield(int64(trial), 8)
		next := make([]int64, len(weights))
		for slot := int64(0); slot < 24; slot++ {
			for i, w := range weights {
				if slot >= next[i] {
					if err := ex.SubmitJob(tasks[i], rat.FromInt(slot)); err != nil {
						t.Fatal(err)
					}
					next[i] = slot + w.P + rng.Int63n(3) // sporadic: ≥ period apart
				}
			}
			if err := ex.Run(rat.FromInt(slot+1), y, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ex.Drain(y); err != nil {
			t.Fatal(err)
		}
		if err := ex.System().Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := ex.Schedule().ValidateDVQ(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := ex.Schedule().MaxTardiness(); rat.One.Less(got) {
			t.Fatalf("trial %d: online tardiness %s > 1", trial, got)
		}
	}
}

func TestSubmitJobRejectsPast(t *testing.T) {
	ex := New(1, nil)
	task, err := ex.Register("T", model.W(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.SubmitJob(task, rat.Zero); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(rat.FromInt(5), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := ex.SubmitJob(task, rat.FromInt(3)); err == nil {
		t.Error("submission in the past accepted")
	}
}

func TestRunRejectsBackwards(t *testing.T) {
	ex := New(1, nil)
	if err := ex.Run(rat.FromInt(5), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(rat.FromInt(4), nil, nil); err == nil {
		t.Error("running backwards accepted")
	}
}

func TestDispatchCallbackAndPending(t *testing.T) {
	ex := New(1, nil)
	task, err := ex.Register("T", model.W(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.SubmitJob(task, rat.Zero); err != nil {
		t.Fatal(err)
	}
	if ex.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (weight 1/2 job has one subtask)", ex.Pending())
	}
	var got []Dispatch
	if err := ex.Run(rat.FromInt(4), nil, func(d Dispatch) { got = append(got, d) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Sub.Index != 1 || !got[0].Start.Equal(rat.Zero) {
		t.Errorf("dispatches = %+v", got)
	}
	if ex.Pending() != 0 {
		t.Errorf("pending = %d after drain", ex.Pending())
	}
	if !ex.Now().Equal(rat.FromInt(4)) {
		t.Errorf("now = %s, want 4", ex.Now())
	}
}

// A mid-slot submission rounds to the next boundary (windows are integral).
func TestMidSlotSubmissionRoundsUp(t *testing.T) {
	ex := New(1, nil)
	task, err := ex.Register("T", model.W(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(rat.New(5, 2), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := ex.SubmitJob(task, rat.New(5, 2)); err != nil {
		t.Fatal(err)
	}
	seq := ex.System().Subtasks(task)
	if len(seq) != 1 || seq[0].Release() != 3 {
		t.Fatalf("release = %d, want 3 (⌈5/2⌉)", seq[0].Release())
	}
}

// Back-to-back bursty submission (several jobs queued at once) serializes
// correctly through the IS offsets.
func TestBurstSubmission(t *testing.T) {
	ex := New(1, nil)
	task, err := ex.Register("T", model.W(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		if err := ex.SubmitJob(task, rat.Zero); err != nil {
			t.Fatal(err)
		}
	}
	if err := ex.System().Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Drain(nil); err != nil {
		t.Fatal(err)
	}
	// Three jobs of cost 2 on one processor at weight 1/2: windows follow
	// the periodic pattern (offsets never decrease, releases every 2).
	seq := ex.System().Subtasks(task)
	if len(seq) != 6 {
		t.Fatalf("subtasks = %d", len(seq))
	}
	for k := 1; k < len(seq); k++ {
		if seq[k].Release() < seq[k-1].Release() {
			t.Error("releases decreased")
		}
	}
	if got := ex.Schedule().MaxTardiness(); rat.One.Less(got) {
		t.Errorf("burst tardiness %s > 1", got)
	}
}

func TestDrainOnEmptyExecutive(t *testing.T) {
	ex := New(2, nil)
	if _, err := ex.Drain(nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitJobEarly(t *testing.T) {
	ex := New(1, nil)
	task, err := ex.Register("T", model.W(2, 6))
	if err != nil {
		t.Fatal(err)
	}
	// Job arrives at 0; second subtask's release is 3, eligibility pulled
	// to 1 with earliness 2.
	if err := ex.SubmitJobEarly(task, rat.Zero, 2); err != nil {
		t.Fatal(err)
	}
	seq := ex.System().Subtasks(task)
	if len(seq) != 2 {
		t.Fatalf("subtasks = %d", len(seq))
	}
	if seq[1].Release() != 3 || seq[1].Elig != 1 {
		t.Errorf("T_2 r=%d e=%d, want r=3 e=1", seq[1].Release(), seq[1].Elig)
	}
	if err := ex.System().Validate(); err != nil {
		t.Fatal(err)
	}
	// On an otherwise idle processor, the early-released subtask runs well
	// before its pseudo-release.
	if _, err := ex.Drain(nil); err != nil {
		t.Fatal(err)
	}
	a := ex.Schedule().Of(seq[1])
	if !a.Start.Equal(rat.One) {
		t.Errorf("T_2 started at %s, want 1 (early released)", a.Start)
	}
	if err := ex.SubmitJobEarly(task, rat.FromInt(6), -1); err == nil {
		t.Error("negative earliness accepted")
	}
}

// Eligibility never precedes the arrival even with large earliness.
func TestSubmitJobEarlyClampsToArrival(t *testing.T) {
	ex := New(1, nil)
	task, err := ex.Register("T", model.W(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(rat.FromInt(5), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := ex.SubmitJobEarly(task, rat.FromInt(5), 100); err != nil {
		t.Fatal(err)
	}
	sub := ex.System().Subtasks(task)[0]
	if sub.Elig != 5 {
		t.Errorf("eligibility %d, want clamped to arrival 5", sub.Elig)
	}
}

// FuzzExecutive drives random register/submit/run sequences through the
// online executive and asserts the structural invariants and the Theorem 3
// bound on whatever was dispatched.
func FuzzExecutive(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(4))
	f.Add(int64(9), uint8(2), uint8(8))
	f.Add(int64(-3), uint8(1), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, mRaw, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + int(mRaw%3)
		ex := New(m, nil)
		var tasks []*model.Task
		now := int64(0)
		for step := 0; step < int(steps%24)+1; step++ {
			switch rng.Intn(4) {
			case 0: // register (may be refused by admission control)
				p := int64(2 + rng.Intn(5))
				e := 1 + rng.Int63n(p)
				if task, err := ex.Register("t", model.W(e, p)); err == nil {
					tasks = append(tasks, task)
				}
			case 1: // submit, possibly early-released
				if len(tasks) > 0 {
					task := tasks[rng.Intn(len(tasks))]
					if rng.Intn(2) == 0 {
						_ = ex.SubmitJob(task, rat.FromInt(now))
					} else {
						_ = ex.SubmitJobEarly(task, rat.FromInt(now), rng.Int63n(3))
					}
				}
			default: // advance time
				now += rng.Int63n(3) + 1
				if err := ex.Run(rat.FromInt(now), gen.UniformYield(seed, 8), nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := ex.Drain(gen.UniformYield(seed, 8)); err != nil {
			t.Fatal(err)
		}
		if err := ex.System().Validate(); err != nil {
			t.Fatalf("executive built an invalid system: %v", err)
		}
		if err := ex.Schedule().ValidateDVQ(); err != nil {
			t.Fatal(err)
		}
		if got := ex.Schedule().MaxTardiness(); rat.One.Less(got) {
			t.Fatalf("online tardiness %s > 1", got)
		}
	})
}
