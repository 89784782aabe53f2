package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"
)

// opKind is one request type of the generated stream.
type opKind uint8

const (
	opSubmit  opKind = iota // keyed singleton POST /jobs
	opBatch                 // POST /jobs:batch
	opAdvance               // POST /advance by one quantum
)

func (k opKind) String() string {
	return [...]string{"submit", "batch", "advance"}[k]
}

// op is one generated request. Every job is submitted at the tenant's
// current virtual time (an empty "at"), which is what concurrent clients
// of pfaird do; the acked arrival time comes back in the response.
type op struct {
	kind   opKind
	tenant int
	tasks  []int32       // released tasks: one for a submit, many for a batch
	key    string        // idempotency key of a singleton submit
	due    time.Duration // open loop: when the request is due, from phase start
}

// phase is one stretch of an open loop at a fixed offered rate.
type phase struct {
	name string
	rate float64 // offered requests per second, all kinds together
	dur  time.Duration
	ops  []op
}

// stream is one connection's closed-loop operations: a pre-generated
// head, then either the head again (gen == nil) or more from the
// generator, for as long as the run lasts. The head is what the
// operation-stream hash covers; the rest follows from it.
type stream struct {
	head []op
	gen  *cycleGen
	i    int
	more op
}

func (s *stream) next() *op {
	switch {
	case s.i < len(s.head):
		s.i++
		return &s.head[s.i-1]
	case s.gen == nil:
		s.i = 1
		return &s.head[0]
	}
	s.more = s.gen.op()
	return &s.more
}

// taskSpec is one task registered in every tenant of a workload.
type taskSpec struct {
	name string
	e, p int64
}

// spec is a workload's fully generated input: everything pfaird receives
// is derived from it, and it is derived from the seed alone.
type spec struct {
	workload string
	tenants  int
	m        int
	tasks    []taskSpec
	durable  bool
	// leaderFlags are the only non-default flags of the (leader) pfaird.
	leaderFlags []string

	// nominal is cluster-follow's open loop, due-time-stamped.
	nominal phase
	// closed has one stream per connection of the closed loop; each
	// tenant appears in exactly one.
	closed []*stream
	// heapAt is how many closed-loop requests complete before the heap
	// is read: a fixed amount of work, so the reading does not depend on
	// how fast the host ran.
	heapAt int64

	seconds int
}

// measured is the run's measured time (--seconds).
func (sp *spec) measured() time.Duration { return time.Duration(sp.seconds) * time.Second }

func tenantID(i int) string { return fmt.Sprintf("t%02d", i) }

const (
	clusterRate = 600.0
	// streamHead is how many operations of an endless stream are
	// generated up front (and hashed).
	streamHead = 4096
)

// buildSpec generates a workload's input from the seed. conns is the
// number of connections of ingest's closed loop; it decides how the
// tenants are dealt to streams.
func buildSpec(workload string, seed int64, seconds, conns int) (*spec, error) {
	rng := rand.New(rand.NewSource(seed))
	total := time.Duration(seconds) * time.Second
	switch workload {
	case "ingest":
		sp := &spec{workload: workload, tenants: 16, m: 1, durable: true, seconds: seconds, heapAt: 20000}
		for i := 0; i < 8; i++ {
			sp.tasks = append(sp.tasks, taskSpec{name: fmt.Sprintf("a%d", i), e: 1, p: 8})
		}
		sp.closed = closedStreams(rng, sp.tenants, conns, len(sp.tasks), 8, 16)
		return sp, nil
	case "sched-wide":
		sp := &spec{workload: workload, tenants: 1, m: 64, seconds: seconds}
		// One fixed multiset of weights, dealt to the task names in a
		// seeded order: every seed asks for the same scheduling work, so
		// seeds differ in inputs but not in how hard they are.
		sp.tasks = wideTasks(rand.New(rand.NewSource(1)), 1024, 64)
		rng.Shuffle(len(sp.tasks), func(i, j int) {
			sp.tasks[i].e, sp.tasks[j].e = sp.tasks[j].e, sp.tasks[i].e
			sp.tasks[i].p, sp.tasks[j].p = sp.tasks[j].p, sp.tasks[i].p
		})
		cycle := wideCycle(sp.tasks)
		sp.closed = []*stream{{head: cycle}}
		// 3072 quanta ≈ 194k decisions.
		sp.heapAt = int64(len(cycle)) * 3072 / 64
		return sp, nil
	case "cluster-follow":
		sp := &spec{workload: workload, tenants: 4, m: 2, durable: true, seconds: seconds,
			// At the default -snapshot-every 4096 the follower falls
			// off the leader's log at the leader's first compaction
			// under load: its cursor is always below the snapshot LSN,
			// so it re-queries, gets 410 and stays degraded. No
			// compaction happens within a run with this flag, so the
			// follower check cannot catch that; ingest runs compaction
			// at default flags instead. Drop the flag once followers
			// survive compaction: the follower check then catches the
			// defect if it is still there.
			leaderFlags: []string{"-snapshot-every", "1048576"}}
		for i := 0; i < 16; i++ {
			sp.tasks = append(sp.tasks, taskSpec{name: fmt.Sprintf("c%02d", i), e: 1, p: 8})
		}
		// Tenant 0 carries the follow stream and gets 40% of the
		// requests, so its advances give enough delivery samples.
		g := newCycleGen(rng, []int{0, 1, 2, 3}, len(sp.tasks), 2, 0, []float64{0.4, 0.2, 0.2, 0.2})
		sp.nominal = g.phase("nominal", clusterRate, total)
		return sp, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want ingest, sched-wide or cluster-follow)", workload)
}

// closedStreams deals tenants to conns closed-loop streams (connection c
// drives tenants c, c+conns, ...), each from its own generator so that
// its order does not depend on the other connections' pace.
func closedStreams(rng *rand.Rand, tenants, conns, ntasks, perCycle, batchJobs int) []*stream {
	var ss []*stream
	for c := 0; c < conns; c++ {
		var ids []int
		for t := c; t < tenants; t += conns {
			ids = append(ids, t)
		}
		g := newCycleGen(rand.New(rand.NewSource(rng.Int63())), ids, ntasks, perCycle, batchJobs, nil)
		ss = append(ss, g.stream(streamHead))
	}
	return ss
}

// cycleGen emits per-tenant request cycles: perCycle submit requests
// (one of them, at a seeded position, a batch of batchJobs jobs when
// batchJobs > 0) followed by one advance. Each request picks its tenant
// among ids (see pick) and takes that tenant's next cycle step.
type cycleGen struct {
	rng       *rand.Rand
	ids       []int // the tenants it drives
	ntasks    int
	perCycle  int
	batchJobs int
	share     []float64
	step      []int // per tenant: position in the current cycle
	batchAt   []int // per tenant: position of this cycle's batch
	keys      []int // per tenant: next idempotency-key number
	turn      int   // round robin position
}

func newCycleGen(rng *rand.Rand, ids []int, ntasks, perCycle, batchJobs int, share []float64) *cycleGen {
	g := &cycleGen{rng: rng, ids: ids, ntasks: ntasks, perCycle: perCycle, batchJobs: batchJobs, share: share,
		step: make([]int, len(ids)), batchAt: make([]int, len(ids)), keys: make([]int, len(ids))}
	for i := range g.batchAt {
		g.batchAt[i] = rng.Intn(perCycle)
	}
	return g
}

// pick returns the index in ids of the next request's tenant: by share,
// or round robin when share is nil, so that after n requests every
// tenant has had the same number whatever the seed.
func (g *cycleGen) pick() int {
	if g.share == nil {
		g.turn++
		return (g.turn - 1) % len(g.ids)
	}
	u := g.rng.Float64()
	for i, s := range g.share {
		if u < s {
			return i
		}
		u -= s
	}
	return len(g.share) - 1
}

// op generates the next request.
func (g *cycleGen) op() op {
	t := g.pick()
	o := op{tenant: g.ids[t]}
	switch s := g.step[t]; {
	case s == g.perCycle:
		o.kind = opAdvance
		g.step[t] = 0
		g.batchAt[t] = g.rng.Intn(g.perCycle)
		return o
	case g.batchJobs > 0 && s == g.batchAt[t]:
		o.kind = opBatch
		o.tasks = make([]int32, g.batchJobs)
		for i := range o.tasks {
			o.tasks[i] = int32(g.rng.Intn(g.ntasks))
		}
	default:
		o.kind = opSubmit
		o.tasks = []int32{int32(g.rng.Intn(g.ntasks))}
		o.key = fmt.Sprintf("k%d", g.keys[t])
		g.keys[t]++
	}
	g.step[t]++
	return o
}

// phase generates every request due within dur at the given rate, with
// Poisson arrivals.
func (g *cycleGen) phase(name string, rate float64, dur time.Duration) phase {
	ph := phase{name: name, rate: rate, dur: dur}
	var at float64 // seconds
	for {
		at += g.rng.ExpFloat64() / rate
		due := time.Duration(at * float64(time.Second))
		if due >= dur {
			return ph
		}
		o := g.op()
		o.due = due
		ph.ops = append(ph.ops, o)
	}
}

// stream generates a head of n requests and continues from g after it.
func (g *cycleGen) stream(n int) *stream {
	s := &stream{gen: g}
	for range n {
		s.head = append(s.head, g.op())
	}
	return s
}

// wideTasks draws n tasks with mixed weights e/p: a quarter of the tasks
// each on p = 8, 16, 32 and 64, in seeded order, with seeded execution
// costs e, then lowers seeded costs until Σ e/p = m (just under m when
// no exact fit is left). Every weight is a multiple of 1/64, so the sum
// is tracked exactly.
func wideTasks(rng *rand.Rand, n int, m int64) []taskSpec {
	periods := []int64{8, 16, 32, 64}
	ts := make([]taskSpec, n)
	var units int64 // Σ e/p in 1/64ths
	for i, j := range rng.Perm(n) {
		p := periods[j%len(periods)]
		e := 1 + rng.Int63n(p/4)
		ts[i] = taskSpec{name: fmt.Sprintf("w%04d", i), e: e, p: p}
		units += e * (64 / p)
	}
	for tries := 0; units > m*64 && tries < 100*n; tries++ {
		if t := &ts[rng.Intn(n)]; t.e > 1 && units-64/t.p >= m*64 {
			t.e--
			units -= 64 / t.p
		}
	}
	for i := 0; units > m*64; i++ { // no exact fit left: undershoot
		if t := &ts[i%n]; t.e > 1 {
			t.e--
			units -= 64 / t.p
		}
	}
	return ts
}

// wideCycle is one hyperperiod (64 quanta) of sched-wide's closed loop:
// at each quantum a batch of the jobs periodic tasks release there, then
// an advance by one quantum.
func wideCycle(ts []taskSpec) []op {
	var ops []op
	for q := int64(0); q < 64; q++ {
		var rel []int32
		for i, t := range ts {
			if q%t.p == 0 {
				rel = append(rel, int32(i))
			}
		}
		if len(rel) > 0 {
			ops = append(ops, op{kind: opBatch, tasks: rel})
		}
		ops = append(ops, op{kind: opAdvance})
	}
	return ops
}

// hash digests everything pfaird will be sent, in order: the open
// loop and the head of each closed-loop stream, which with the seed
// fixes the rest.
func (sp *spec) hash() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s tenants=%d m=%d durable=%v flags=%v\n", sp.workload, sp.tenants, sp.m, sp.durable, sp.leaderFlags)
	for _, t := range sp.tasks {
		fmt.Fprintf(h, "task %s %d/%d\n", t.name, t.e, t.p)
	}
	writeOps := func(ops []op) {
		for _, o := range ops {
			fmt.Fprintf(h, "%d %d %v %s %d\n", o.kind, o.tenant, o.tasks, o.key, o.due)
		}
	}
	fmt.Fprintf(h, "phase %s %g %d\n", sp.nominal.name, sp.nominal.rate, sp.nominal.dur)
	writeOps(sp.nominal.ops)
	for i, st := range sp.closed {
		fmt.Fprintf(h, "stream %d cyclic=%v\n", i, st.gen == nil)
		writeOps(st.head)
	}
	return hex.EncodeToString(h.Sum(nil))
}
