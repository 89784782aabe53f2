package main

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"syscall"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/server"
)

// newConn returns a client that holds at most one TCP connection, with
// no retry policy: every refusal reaches the caller and is counted.
func newConn(base string) *client.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return client.New(base, &http.Client{Transport: tr})
}

// failure classes, counted in the result line's failed.
const (
	failNone = iota
	fail429
	fail409
	fail5xx
	fail4xx
	failTransport
	failEvicted
	nFail
)

func classify(err error) int {
	if err == nil {
		return failNone
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		switch {
		case ae.Status == http.StatusTooManyRequests:
			return fail429
		case ae.Status == http.StatusConflict:
			return fail409
		case ae.Status >= 500:
			return fail5xx
		default:
			return fail4xx
		}
	}
	var ge *client.StreamGoneError
	if errors.As(err, &ge) {
		return failEvicted
	}
	return failTransport
}

// acked is one command pfaird acknowledged, as the replay check needs it.
type acked struct {
	kind  opKind
	tasks []int32
	at    []string // per released job: the acked arrival time
	now   string   // advance: virtual time after it
}

// sample is the outcome of one timed request.
type sample struct {
	kind opKind
	lat  time.Duration // from due (open loop) or send (closed loop) to reply
	late time.Duration // how late the generator sent it
	sent time.Time
	fail int
	disp int64 // advance: decisions it made
	seq  int64 // advance of the streamed tenant: seq of its last decision, else -1
}

// feeder executes ops against one pfaird-compatible endpoint and keeps
// each tenant's acked commands in order. A tenant is only ever driven by
// one goroutine, so acks[t] needs no lock.
type feeder struct {
	sp       *spec
	acks     [][]acked
	dispSeen []int64 // per tenant: decisions acked so far
	streamed int     // tenant whose last decision seq samples carry, -1 for none
}

func newFeeder(sp *spec, streamed int) *feeder {
	return &feeder{sp: sp, acks: make([][]acked, sp.tenants), dispSeen: make([]int64, sp.tenants), streamed: streamed}
}

// do sends one op on c and records its ack. It returns the decisions an
// advance made and, for an advance of the streamed tenant that made
// some, the seq of its last decision (else -1).
func (d *feeder) do(ctx context.Context, c *client.Client, o *op) (int64, int64, error) {
	tid := tenantID(o.tenant)
	switch o.kind {
	case opSubmit:
		resp, err := c.SubmitJobKeyed(ctx, tid, server.SubmitJobRequest{Task: d.sp.tasks[o.tasks[0]].name, Key: o.key})
		if err != nil {
			return 0, -1, err
		}
		d.acks[o.tenant] = append(d.acks[o.tenant], acked{kind: opSubmit, tasks: o.tasks, at: []string{resp.At}})
	case opBatch:
		jobs := make([]server.SubmitJobRequest, len(o.tasks))
		for i, ti := range o.tasks {
			jobs[i].Task = d.sp.tasks[ti].name
		}
		resp, err := c.SubmitJobs(ctx, tid, jobs)
		if err != nil {
			return 0, -1, err
		}
		at := make([]string, len(resp.Results))
		for i, r := range resp.Results {
			at[i] = r.At
		}
		d.acks[o.tenant] = append(d.acks[o.tenant], acked{kind: opBatch, tasks: o.tasks, at: at})
	case opAdvance:
		resp, err := c.AdvanceBy(ctx, tid, "1")
		if err != nil {
			return 0, -1, err
		}
		d.acks[o.tenant] = append(d.acks[o.tenant], acked{kind: opAdvance, now: resp.Now})
		d.dispSeen[o.tenant] += resp.Dispatched
		seq := int64(-1)
		if o.tenant == d.streamed && resp.Dispatched > 0 {
			seq = d.dispSeen[o.tenant] - 1
		}
		return resp.Dispatched, seq, nil
	}
	return 0, -1, nil
}

// sleepUntil waits for t with nanosleep, whose wake-up error is tens of
// microseconds; the Go timer rounds sub-millisecond sleeps up to ~1ms.
// A goroutine in nanosleep keeps its P until sysmon retakes it (up to
// 10ms later on an idle process), so main raises GOMAXPROCS by the
// number of pacing goroutines to keep the HTTP transport's goroutines
// runnable meanwhile.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// openLoop runs one phase on c, sending its ops in due order, each
// timed from its due time. If the generator falls more than cutoff
// behind it abandons the rest of the phase (those ops are never sent).
func (d *feeder) openLoop(ctx context.Context, ph *phase, c *client.Client, cutoff time.Duration) []sample {
	var out []sample
	start := time.Now().Add(2 * time.Millisecond)
	for i := range ph.ops {
		o := &ph.ops[i]
		due := start.Add(o.due)
		sleepUntil(due)
		sent := time.Now()
		late := sent.Sub(due)
		if late > cutoff || ctx.Err() != nil {
			break
		}
		disp, seq, err := d.do(ctx, c, o)
		out = append(out, sample{kind: o.kind, lat: time.Since(due), late: late, sent: sent,
			fail: classify(err), disp: disp, seq: seq})
	}
	return out
}

// --- statistics ---

// pct returns the q-quantile (nearest rank) of xs, which it sorts.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return pct(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencies returns the latencies (ms) of samples of the given kinds; a
// failed request counts as infinitely late, so it misses any limit.
func latencies(ss []sample, kinds ...opKind) []float64 {
	var xs []float64
	for _, s := range ss {
		for _, k := range kinds {
			if s.kind == k {
				v := ms(s.lat)
				if s.fail != failNone {
					v = inf
				}
				xs = append(xs, v)
			}
		}
	}
	return xs
}

const inf = 1e18

// tally counts attempted and failed operations.
type tally struct {
	attempted int64
	failed    [nFail]int64
}

func (t *tally) add(ss []sample) {
	for _, s := range ss {
		t.attempted++
		t.failed[s.fail]++
	}
}

func (t *tally) failures() int64 {
	var n int64
	for c := failNone + 1; c < nFail; c++ {
		n += t.failed[c]
	}
	return n
}
