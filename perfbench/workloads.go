package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"desyncpfair/internal/client"
)

// closedLoop drives conns[i] through sp.closed[i], one request in
// flight per connection, until dur has passed or a request fails (a
// closed loop cannot go on past a lost command). If heapAt is not 0,
// each connection pauses after heapAt/len(conns) requests; once all
// have (or have stopped), the servers' heap is read into rep with no
// request in flight, at the same point of every stream.
func closedLoop(ctx context.Context, sp *spec, e *env, d *feeder, conns []*client.Client, dur time.Duration, heapAt int64, rep *report) ([]sample, error) {
	var (
		arrived sync.WaitGroup
		release = make(chan struct{})
		heapEr  error
		short   atomic.Bool // a connection stopped before its quota
	)
	quota := heapAt / int64(len(conns))
	if heapAt > 0 {
		arrived.Add(len(conns))
		go func() {
			arrived.Wait()
			heapEr = heapOf(ctx, e, rep)
			close(release)
		}()
	}
	end := time.Now().Add(dur)
	out := make([][]sample, len(conns))
	var wg sync.WaitGroup
	for ci := range conns {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var n int64
			defer func() {
				if heapAt > 0 && n < quota {
					short.Store(true)
					arrived.Done()
				}
			}()
			for time.Now().Before(end) && ctx.Err() == nil {
				o := sp.closed[ci].next()
				sent := time.Now()
				disp, seq, err := d.do(ctx, conns[ci], o)
				out[ci] = append(out[ci], sample{kind: o.kind, lat: time.Since(sent), sent: sent, fail: classify(err), disp: disp, seq: seq})
				if err != nil {
					return
				}
				if n++; n == quota {
					arrived.Done()
					<-release
				}
			}
		}(ci)
	}
	wg.Wait()
	if heapAt > 0 {
		<-release
		if short.Load() {
			fmt.Fprintf(os.Stderr, "%s: not every connection made %d requests in %v; heap read early\n", sp.workload, quota, dur)
		}
	}
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all, heapEr
}

// runClosed (ingest, sched-wide): the closed loop for the run's
// duration, then a delivery probe with a follower on tenant 0.
func runClosed(ctx context.Context, sp *spec, e *env, rep *report) error {
	conns := make([]*client.Client, len(sp.closed))
	for i := range conns {
		conns[i] = newConn(e.front)
	}
	d := newFeeder(sp, -1)
	var tl tally
	t0 := time.Now()
	ss, err := closedLoop(ctx, sp, e, d, conns, sp.measured(), sp.heapAt, rep)
	if err != nil {
		return err
	}
	tl.add(ss)
	rep.set("decisions_per_s", "1/s", windowRate(ss, t0, func(s sample) float64 { return float64(s.disp) }))

	d.streamed = 0
	probe, err := deliveryProbe(ctx, d, conns[0], sp.closed[0], e.leader.url, sp.probeDur())
	if err != nil {
		return err
	}
	tl.attempted += probe.attempted
	tl.failed[failEvicted] += probe.evicted
	setDelivery(rep, probe.delivery)
	rep.Attempted, rep.Failed = tl.attempted, tl.failures()
	_, err = finish(ctx, sp, e, d)
	return err
}

// windowRate is the median over the run's whole one-second windows of
// Σ weight(sample) per second: a closed loop's throughput, robust to a
// noisy second on a shared host.
func windowRate(ss []sample, t0 time.Time, weight func(sample) float64) float64 {
	var sums []float64
	for _, s := range ss {
		w := int(s.sent.Sub(t0) / time.Second)
		for len(sums) <= w {
			sums = append(sums, 0)
		}
		sums[w] += weight(s)
	}
	if len(sums) > 1 {
		sums = sums[:len(sums)-1] // the last window is partial
	}
	return median(sums)
}

// runClusterFollow: one open loop through pfair-router at a fixed rate
// on connection one, a follow-mode stream of tenant 0 on the follower on
// connection two; then the follower's logs must equal the leader's.
func runClusterFollow(ctx context.Context, sp *spec, e *env, rep *report) error {
	conn := newConn(e.front)
	d := newFeeder(sp, 0)
	var tl tally
	fol, err := follow(ctx, newConn(e.follower.url), tenantID(0), 0)
	if err != nil {
		return err
	}
	t0 := time.Now()
	ss := d.openLoop(ctx, &sp.nominal, conn, time.Second)
	wall := time.Since(t0)
	tl.add(ss)
	var want int64 = -1
	for _, s := range ss {
		want = max(want, s.seq)
	}
	arrivals, evicted, opened := fol.waitFor(ctx, want, 10*time.Second)
	fol.stop()
	tl.attempted += opened
	tl.failed[failEvicted] += evicted
	var delivery []sample
	for _, s := range ss {
		if s.seq >= 0 {
			delivery = append(delivery, deliverySample(s.sent, arrivals, s.seq))
		}
	}
	if len(delivery) == 0 {
		return errors.New("cluster-follow: no advance of tenant 0 dispatched anything")
	}
	setDelivery(rep, delivery)
	// The decisions of a fixed offered rate: this falls only if pfaird
	// stops keeping up. A closed loop's capacity figure swung by a fifth
	// to a quarter from run to run here, through the router or not.
	var decisions int64
	for _, s := range ss {
		decisions += s.disp
	}
	rep.set("decisions_per_s", "1/s", float64(decisions)/wall.Seconds())
	if err := heapOf(ctx, e, rep); err != nil {
		return err
	}
	rep.Attempted, rep.Failed = tl.attempted, tl.failures()
	logs, err := finish(ctx, sp, e, d)
	if err != nil {
		return err
	}
	if err := e.caughtUp(ctx, 30*time.Second); err != nil {
		return err
	}
	fc := client.New(e.follower.url, e.hc)
	for t := 0; t < sp.tenants; t++ {
		got, err := fetchLog(ctx, fc, tenantID(t))
		if err != nil {
			return err
		}
		if err := diffLogs("follower log vs. leader log", tenantID(t), got, logs[t]); err != nil {
			return err
		}
	}
	return nil
}

// follower reads one follow-mode dispatch stream and stamps each
// decision's arrival. An eviction (410) is counted and the stream is
// reopened at the server's resume hint.
type follower struct {
	cancel  context.CancelFunc
	done    chan struct{}
	mu      sync.Mutex
	arrive  []time.Time // by decision seq
	evicted int64
	opened  int64
	err     error
}

func follow(ctx context.Context, c *client.Client, tenant string, from int64) (*follower, error) {
	ctx, cancel := context.WithCancel(ctx)
	st, err := c.StreamDispatches(ctx, tenant, from, true)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("open dispatch stream of %s: %w", tenant, err)
	}
	f := &follower{cancel: cancel, done: make(chan struct{}), opened: 1}
	go func() {
		defer close(f.done)
		for {
			ev, err := st.Next()
			var gone *client.StreamGoneError
			switch {
			case errors.As(err, &gone):
				st.Close()
				f.mu.Lock()
				f.evicted++
				f.opened++
				f.mu.Unlock()
				if st, err = c.StreamDispatches(ctx, tenant, gone.ResumeFrom, true); err != nil {
					f.fail(err)
					return
				}
				continue
			case err != nil:
				st.Close()
				f.fail(err)
				return
			}
			now := time.Now()
			f.mu.Lock()
			for int64(len(f.arrive)) <= ev.Seq {
				f.arrive = append(f.arrive, time.Time{})
			}
			f.arrive[ev.Seq] = now
			f.mu.Unlock()
		}
	}()
	return f, nil
}

func (f *follower) fail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
}

// waitFor blocks until decision seq has arrived (or within passes) and
// returns the arrival stamps so far with the eviction and open counts.
func (f *follower) waitFor(ctx context.Context, seq int64, within time.Duration) ([]time.Time, int64, int64) {
	deadline := time.Now().Add(within)
	for {
		f.mu.Lock()
		ok := seq < int64(len(f.arrive)) && !f.arrive[seq].IsZero()
		stopped := f.err != nil
		if ok || stopped || time.Now().After(deadline) || ctx.Err() != nil {
			arr := append([]time.Time(nil), f.arrive...)
			ev, op := f.evicted, f.opened
			f.mu.Unlock()
			return arr, ev, op
		}
		f.mu.Unlock()
		sleepUntil(time.Now().Add(20 * time.Microsecond))
	}
}

func (f *follower) stop() {
	f.cancel()
	<-f.done
}

// deliverySample is the delivery of an advance sent at sent whose last
// decision is seq, given the stream's arrival stamps.
func deliverySample(sent time.Time, arrive []time.Time, seq int64) sample {
	s := sample{kind: opAdvance, sent: sent}
	if seq >= int64(len(arrive)) || arrive[seq].IsZero() {
		s.fail = failTransport // never arrived: counts as infinitely late
		return s
	}
	s.lat = arrive[seq].Sub(sent)
	return s
}

// probeDur is how long ingest and sched-wide probe delivery after their
// timed load: a fifth of the segment.
func (sp *spec) probeDur() time.Duration { return sp.measured() / 5 }

// probeResult is a delivery probe's outcome.
type probeResult struct {
	// delivery has one sample per advance of the streamed tenant that
	// dispatched something: lat is the time until its last frame
	// arrived (failed if none did).
	delivery  []sample
	attempted int64
	evicted   int64
}

// deliveryProbe follows the feeder's streamed tenant on base and, for
// the given duration, sends st's next operations closed loop on c,
// waiting after each advance of that tenant that dispatched something
// until its last decision has arrived on the stream.
func deliveryProbe(ctx context.Context, d *feeder, c *client.Client, st *stream, base string, dur time.Duration) (probeResult, error) {
	var res probeResult
	tenant := tenantID(d.streamed)
	info, err := client.New(base, nil).Tenant(ctx, tenant)
	if err != nil {
		return res, err
	}
	fol, err := follow(ctx, newConn(base), tenant, info.Dispatches)
	if err != nil {
		return res, err
	}
	defer fol.stop()
	end := time.Now().Add(dur)
	for time.Now().Before(end) && ctx.Err() == nil {
		sent := time.Now()
		_, seq, err := d.do(ctx, c, st.next())
		res.attempted++
		if err != nil {
			return res, fmt.Errorf("delivery probe: %w", err)
		}
		if seq < 0 {
			continue
		}
		arr, _, _ := fol.waitFor(ctx, seq, 5*time.Second)
		res.delivery = append(res.delivery, deliverySample(sent, arr, seq))
	}
	fol.mu.Lock()
	res.evicted, res.attempted = fol.evicted, res.attempted+fol.opened
	fol.mu.Unlock()
	if len(res.delivery) == 0 {
		return res, errors.New("delivery probe: no advance dispatched anything")
	}
	return res, nil
}
