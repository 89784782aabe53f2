package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime/metrics"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/cluster"
	"desyncpfair/internal/model"
	"desyncpfair/internal/online"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/server"
	"desyncpfair/internal/wal"
)

// The traced run drives a workload's seeded operation stream down a
// ladder of public entry points, innermost first:
//
//	online   online.Executive SubmitJob / Run
//	tenant   server.Tenant (journaled to a wal.Log on durable workloads;
//	         the journal calls are the wal rung's spans)
//	handler  Server.Handler().ServeHTTP with an httptest.ResponseRecorder
//	loopback client.Client over 127.0.0.1
//	router   client.Client → cluster.Router → pfaird handler
//	repl     wal.Reader.Next → follower Server.ApplyReplicated
//	egress   Tenant.FramesSince, client.Stream.Next
//	obs      GET /metrics through the handler
//
// Each rung is a fresh instance fed the same operations, closed loop.
// One span is recorded per call, keyed by operation index, held in
// memory and reduced at the end; a layer's self time is its span minus
// the same operation's span on the rung below.

// span is one recorded call.
type span struct {
	op     int32
	kind   opKind
	dur    time.Duration
	allocs uint64
	disp   int64
}

// tracer records spans per layer; off, it records nothing (the
// untraced pass of the overhead measurement).
type tracer struct {
	on    bool
	spans map[string][]span
	ms    []metrics.Sample
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, spans: map[string][]span{}, ms: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (t *tracer) allocs() uint64 {
	metrics.Read(t.ms)
	return t.ms[0].Value.Uint64()
}

// call times fn as one span of layer for operation i.
func (t *tracer) call(layer string, i int, kind opKind, fn func() (int64, error)) (int64, error) {
	if !t.on {
		return fn()
	}
	a0 := t.allocs()
	t0 := time.Now()
	disp, err := fn()
	d := time.Since(t0)
	t.spans[layer] = append(t.spans[layer], span{op: int32(i), kind: kind, dur: d, allocs: t.allocs() - a0, disp: disp})
	return disp, err
}

// stack is one rung's entry point.
type stack interface {
	do(o *op) (int64, error)
}

// traceOps is the bounded prefix of the workload's stream the ladder
// replays.
func traceOps(sp *spec) []op {
	switch sp.workload {
	case "sched-wide": // three hyperperiods
		var ops []op
		for r := 0; r < 3; r++ {
			ops = append(ops, sp.closed[0].head...)
		}
		return ops
	case "ingest": // the head of each stream; their tenants are disjoint
		var ops []op
		for _, st := range sp.closed {
			ops = append(ops, st.head[:min(len(st.head), 2500/len(sp.closed))]...)
		}
		return ops
	}
	return sp.nominal.ops[:min(len(sp.nominal.ops), 2500)]
}

func drive(tr *tracer, layer string, ops []op, st stack) error {
	for i := range ops {
		o := &ops[i]
		if _, err := tr.call(layer, i, o.kind, func() (int64, error) { return st.do(o) }); err != nil {
			return fmt.Errorf("%s rung, op %d (%v): %w", layer, i, o.kind, err)
		}
	}
	return nil
}

// --- online rung ---

type execStack struct {
	exs   []*online.Executive
	tasks [][]*model.Task
	disp  int64
}

func newExecStack(sp *spec) (*execStack, error) {
	s := &execStack{}
	for t := 0; t < sp.tenants; t++ {
		ex := online.New(sp.m, nil)
		ex.SetOnDispatch(func(online.Dispatch) { s.disp++ })
		var ts []*model.Task
		for _, spec := range sp.tasks {
			task, err := ex.Register(spec.name, model.W(spec.e, spec.p))
			if err != nil {
				return nil, err
			}
			ts = append(ts, task)
		}
		s.exs = append(s.exs, ex)
		s.tasks = append(s.tasks, ts)
	}
	return s, nil
}

func (s *execStack) do(o *op) (int64, error) {
	ex := s.exs[o.tenant]
	if o.kind == opAdvance {
		before := s.disp
		err := ex.Run(ex.Now().Add(rat.FromInt(1)), nil, nil)
		return s.disp - before, err
	}
	for _, ti := range o.tasks {
		if err := ex.SubmitJob(s.tasks[o.tenant][ti], ex.Now()); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

// --- tenant rung (+ wal spans) ---

type tenantStack struct {
	sp      *spec
	ts      []*server.Tenant
	log     *wal.Log // nil on in-memory workloads
	tr      *tracer
	cur     int // operation index, for the wal spans
	records int
}

func newTenantStack(sp *spec, dir string, tr *tracer) (*tenantStack, error) {
	s := &tenantStack{sp: sp, tr: tr}
	if sp.durable {
		// pfaird's defaults: -fsync-every 64, -fsync-max-delay 100ms.
		l, _, err := wal.Open(dir, wal.Options{FsyncEvery: 64, FsyncMaxDelay: 100 * time.Millisecond})
		if err != nil {
			return nil, err
		}
		s.log = l
	}
	for t := 0; t < sp.tenants; t++ {
		tn, err := server.NewTenant(tenantID(t), sp.m, "")
		if err != nil {
			return nil, err
		}
		s.ts = append(s.ts, tn)
		if s.log == nil {
			continue
		}
		// The follower of the repl rung replays this log from LSN 1, so
		// it starts with the create record a Server would journal.
		c, err := s.log.AppendAsync(wal.Record{Op: wal.OpTenantCreate, Tenant: tenantID(t), M: sp.m, Policy: tn.Info().Policy})
		if err != nil {
			return nil, err
		}
		if err := s.log.Wait(c); err != nil {
			return nil, err
		}
		tn.SetJournal(s.appendOne, s.appendBatch, s.log.Fail)
	}
	for _, tn := range s.ts {
		for _, ts := range sp.tasks {
			if d, c, err := tn.RegisterTask(ts.name, model.W(ts.e, ts.p)); err != nil || !d.Admitted {
				return nil, fmt.Errorf("register %s: %v %s", ts.name, err, d.Reason)
			} else if err := s.wait(c); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

func (s *tenantStack) appendOne(r wal.Record) (wal.Commit, error) {
	var c wal.Commit
	_, err := s.tr.call("wal.append", s.cur, opSubmit, func() (int64, error) {
		var err error
		c, err = s.log.AppendAsync(r)
		return 0, err
	})
	s.records++
	return c, err
}

func (s *tenantStack) appendBatch(rs []wal.Record) (wal.Commit, error) {
	var c wal.Commit
	_, err := s.tr.call("wal.append", s.cur, opBatch, func() (int64, error) {
		var err error
		c, err = s.log.AppendBatch(rs)
		return 0, err
	})
	s.records += len(rs)
	return c, err
}

func (s *tenantStack) wait(c wal.Commit) error {
	if s.log == nil {
		return nil
	}
	_, err := s.tr.call("wal.wait", s.cur, opSubmit, func() (int64, error) { return 0, s.log.Wait(c) })
	return err
}

func (s *tenantStack) do(o *op) (int64, error) {
	tn := s.ts[o.tenant]
	var (
		c    wal.Commit
		err  error
		disp int64
	)
	switch o.kind {
	case opSubmit:
		_, c, err = tn.SubmitJobReq(server.SubmitJobRequest{Task: s.sp.tasks[o.tasks[0]].name, Key: o.key})
	case opBatch:
		_, c, err = tn.SubmitJobs(batchReq(s.sp, o).Jobs)
	case opAdvance:
		var resp server.AdvanceResponse
		resp, c, err = tn.Advance("", "1")
		disp = resp.Dispatched
	}
	if err != nil {
		return 0, err
	}
	return disp, s.wait(c)
}

func (s *tenantStack) close() {
	for _, tn := range s.ts {
		tn.Close()
	}
	if s.log != nil {
		_ = s.log.Close()
	}
}

func batchReq(sp *spec, o *op) server.SubmitJobsRequest {
	jobs := make([]server.SubmitJobRequest, len(o.tasks))
	for i, ti := range o.tasks {
		jobs[i].Task = sp.tasks[ti].name
	}
	return server.SubmitJobsRequest{Jobs: jobs}
}

// --- handler rung ---

// openServer builds the in-process equivalent of the workload's pfaird
// (durable with pfaird's default flags, or in memory) with its tenants
// and tasks registered.
func openServer(sp *spec, dir string) (*server.Server, error) {
	var srv *server.Server
	if sp.durable {
		var err error
		srv, err = server.Open(server.Options{DataDir: dir, FsyncEvery: 64, SnapshotEvery: 4096})
		if err != nil {
			return nil, err
		}
	} else {
		srv = server.New()
	}
	h := srv.Handler()
	post := func(path string, body any) error {
		rec := serve(h, http.MethodPost, path, body)
		if rec.Code >= 300 {
			return fmt.Errorf("POST %s: HTTP %d %s", path, rec.Code, rec.Body)
		}
		return nil
	}
	for t := 0; t < sp.tenants; t++ {
		if err := post("/v1/tenants", server.CreateTenantRequest{ID: tenantID(t), M: sp.m}); err != nil {
			return nil, err
		}
		for _, ts := range sp.tasks {
			if err := post("/v1/tenants/"+tenantID(t)+"/tasks", server.RegisterTaskRequest{Name: ts.name, E: ts.e, P: ts.p}); err != nil {
				return nil, err
			}
		}
	}
	return srv, nil
}

func serve(h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	var rd *bytes.Reader
	if body != nil {
		b, _ := json.Marshal(body)
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

type handlerStack struct {
	sp *spec
	h  http.Handler
}

func (s *handlerStack) do(o *op) (int64, error) {
	path := "/v1/tenants/" + tenantID(o.tenant)
	var rec *httptest.ResponseRecorder
	switch o.kind {
	case opSubmit:
		rec = serve(s.h, http.MethodPost, path+"/jobs", server.SubmitJobRequest{Task: s.sp.tasks[o.tasks[0]].name, Key: o.key})
	case opBatch:
		rec = serve(s.h, http.MethodPost, path+"/jobs:batch", batchReq(s.sp, o))
	case opAdvance:
		rec = serve(s.h, http.MethodPost, path+"/advance", server.AdvanceRequest{By: "1"})
	}
	if rec.Code >= 300 {
		return 0, fmt.Errorf("HTTP %d: %s", rec.Code, rec.Body)
	}
	if o.kind == opAdvance {
		var resp server.AdvanceResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return 0, err
		}
		return resp.Dispatched, nil
	}
	return 0, nil
}

// --- loopback and router rungs ---

type clientStack struct {
	d *feeder
	c *client.Client
}

func (s *clientStack) do(o *op) (int64, error) {
	disp, _, err := s.d.do(context.Background(), s.c, o)
	return disp, err
}

// --- the ladder ---

func runLayers(ctx context.Context, sp *spec, cfg config) (*report, error) {
	rep := &report{}
	if err := genMetrics(ctx, sp, cfg, rep); err != nil {
		return rep, err
	}
	ops := traceOps(sp)
	tr := newTracer(true)
	dir := func(name string) string { return filepath.Join(cfg.workDir, "ladder", name) }

	ex, err := newExecStack(sp)
	if err != nil {
		return rep, err
	}
	if err := drive(tr, "online", ops, ex); err != nil {
		return rep, err
	}

	ts, err := newTenantStack(sp, dir("tenant"), tr)
	if err != nil {
		return rep, err
	}
	defer ts.close()
	for i := range ops {
		ts.cur = i
		o := &ops[i]
		if _, err := tr.call("tenant", i, o.kind, func() (int64, error) { return ts.do(o) }); err != nil {
			return rep, fmt.Errorf("tenant rung, op %d: %w", i, err)
		}
	}

	hsrv, err := openServer(sp, dir("handler"))
	if err != nil {
		return rep, err
	}
	defer hsrv.Close()
	hs := &handlerStack{sp: sp, h: hsrv.Handler()}
	if err := drive(tr, "handler", ops, hs); err != nil {
		return rep, err
	}
	var scrapes []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if rec := serve(hs.h, http.MethodGet, "/metrics", nil); rec.Code != http.StatusOK {
			return rep, fmt.Errorf("GET /metrics: HTTP %d", rec.Code)
		}
		scrapes = append(scrapes, us(time.Since(t0)))
	}

	// Loopback, untraced and traced passes alternating, each on a fresh
	// server: the difference of their median wall times is the tracing
	// overhead.
	var walls [2][]float64
	var lc *client.Client
	for pass := 0; pass < 6; pass++ {
		on := pass%2 == 1
		srv, err := openServer(sp, dir(fmt.Sprintf("loopback%d", pass)))
		if err != nil {
			return rep, err
		}
		defer srv.Close()
		h := httptest.NewServer(srv.Handler())
		defer h.Close()
		c := newConn(h.URL)
		t0 := time.Now()
		ptr := newTracer(on)
		if err := drive(ptr, "loopback", ops, &clientStack{d: newFeeder(sp, -1), c: c}); err != nil {
			return rep, err
		}
		walls[pass%2] = append(walls[pass%2], time.Since(t0).Seconds())
		if on {
			tr.spans["loopback"] = ptr.spans["loopback"]
			lc = c
		}
	}

	bsrv, err := openServer(sp, dir("backend"))
	if err != nil {
		return rep, err
	}
	defer bsrv.Close()
	backend := httptest.NewServer(bsrv.Handler())
	defer backend.Close()
	router, err := cluster.NewRouter(cluster.RouterOptions{Groups: [][]string{{backend.URL}}})
	if err != nil {
		return rep, err
	}
	router.Start()
	defer router.Close()
	rhs := httptest.NewServer(router.Handler())
	defer rhs.Close()
	if err := waitOK(ctx, http.DefaultClient, rhs.URL+"/healthz"); err != nil {
		return rep, err
	}
	rs := &clientStack{d: newFeeder(sp, -1), c: newConn(rhs.URL)}
	if err := drive(tr, "router", ops, rs); err != nil {
		return rep, err
	}

	var repl replStats
	if ts.log != nil {
		if repl, err = replRung(ts.log, dir("follower")); err != nil {
			return rep, err
		}
	}
	eg, err := egressRung(ctx, ts.ts[0], lc)
	if err != nil {
		return rep, err
	}

	layerMetrics(rep, sp, tr, ts, walls, scrapes, repl, eg, dir("tenant"))
	// online, tenant, handler, six loopback passes, router; the scrapes.
	rep.Attempted += int64(len(ops))*10 + int64(len(scrapes))
	return rep, nil
}

// replStats is the repl rung's outcome.
type replStats struct {
	read, apply []float64 // µs per record
	records     int
}

// replRung ships the tenant rung's journal into a fresh follower through
// the same calls the replication tailer makes.
func replRung(l *wal.Log, dir string) (replStats, error) {
	var st replStats
	if err := l.Sync(); err != nil {
		return st, err
	}
	fol, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 64, Follower: true})
	if err != nil {
		return st, err
	}
	defer fol.Close()
	rd := l.NewReader(1)
	defer rd.Close()
	for {
		t0 := time.Now()
		recs, err := rd.Next(256)
		if err != nil {
			return st, err
		}
		if len(recs) == 0 {
			return st, nil
		}
		st.read = append(st.read, us(time.Since(t0))/float64(len(recs)))
		for _, r := range recs {
			t1 := time.Now()
			if err := fol.ApplyReplicated(r); err != nil {
				return st, fmt.Errorf("apply LSN %d: %w", r.LSN, err)
			}
			st.apply = append(st.apply, us(time.Since(t1)))
			st.records++
		}
	}
}

// egressStats is the egress rung's outcome.
type egressStats struct {
	encodeUS float64 // FramesSince per frame (encode on demand)
	frameUS  []float64
	bytes    int
	frames   int
}

// egressRung reads tenant 0's dispatch log as wire frames, in process
// (FramesSince) and over loopback (client.Stream.Next, ?follow=false).
func egressRung(ctx context.Context, tn *server.Tenant, c *client.Client) (egressStats, error) {
	var st egressStats
	t0 := time.Now()
	frames := tn.FramesSince(0)
	if len(frames) == 0 {
		return st, fmt.Errorf("egress rung: tenant %s has no dispatch frames", tn.ID())
	}
	st.encodeUS = us(time.Since(t0)) / float64(len(frames))
	for _, f := range frames {
		st.bytes += len(f)
	}
	st.frames = len(frames)
	s, err := c.StreamDispatches(ctx, tn.ID(), 0, false)
	if err != nil {
		return st, err
	}
	defer s.Close()
	for {
		t1 := time.Now()
		_, err := s.Next()
		if err != nil {
			break
		}
		st.frameUS = append(st.frameUS, us(time.Since(t1)))
	}
	return st, nil
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func spanUS(ss []span, kind opKind) []float64 {
	var xs []float64
	for _, s := range ss {
		if s.kind == kind {
			xs = append(xs, us(s.dur))
		}
	}
	return xs
}

// selfUS is the median over ops of kind of (span on layer − span on the
// rung below) for the same operation index.
func selfUS(tr *tracer, layer, below string, kind opKind) float64 {
	lo := map[int32]time.Duration{}
	for _, s := range tr.spans[below] {
		lo[s.op] += s.dur
	}
	var xs []float64
	for _, s := range tr.spans[layer] {
		if s.kind == kind {
			xs = append(xs, us(s.dur-lo[s.op]))
		}
	}
	return median(xs)
}

// perJob is the median of span/jobs over the batch spans of a layer.
func perJob(ss []span, ops []op) float64 {
	var xs []float64
	for _, s := range ss {
		if s.kind == opBatch {
			xs = append(xs, us(s.dur)/float64(len(ops[s.op].tasks)))
		}
	}
	return median(xs)
}

func allocsPer(ss []span, kind opKind) float64 {
	var a, n uint64
	for _, s := range ss {
		if s.kind == kind {
			a += s.allocs
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(a) / float64(n)
}

func layerMetrics(rep *report, sp *spec, tr *tracer, ts *tenantStack, walls [2][]float64, scrapes []float64, repl replStats, eg egressStats, walDir string) {
	ops := traceOps(sp)
	on := tr.spans["online"]
	var decisions, advAllocs int64
	var decide []float64
	for _, s := range on {
		if s.kind == opAdvance && s.disp > 0 {
			decisions += s.disp
			advAllocs += int64(s.allocs)
			decide = append(decide, us(s.dur)/float64(s.disp))
		}
	}
	rep.set("online.submit_us", "us", median(spanUS(on, opSubmit)))
	if sp.workload == "sched-wide" { // it submits only in batches
		rep.set("online.submit_us", "us", perJob(on, ops))
	}
	rep.set("online.decide_us", "us", median(decide))
	rep.set("online.advance_us", "us", median(spanUS(on, opAdvance)))
	rep.set("online.allocs_per_decision", "count", float64(advAllocs)/float64(max(decisions, 1)))
	rep.set("online.decisions", "count", float64(decisions))

	tn := tr.spans["tenant"]
	rep.set("tenant.submit_us", "us", median(spanUS(tn, opSubmit)))
	rep.set("tenant.batch_job_us", "us", perJob(tn, ops))
	rep.set("tenant.advance_us", "us", median(spanUS(tn, opAdvance)))
	rep.set("tenant.allocs_per_submit", "count", allocsPer(tn, opSubmit))
	rep.set("tenant.advance_self_us", "us", selfUS(tr, "tenant", "online", opAdvance))

	wa, ww := tr.spans["wal.append"], tr.spans["wal.wait"]
	var waits []float64
	for _, s := range ww {
		waits = append(waits, us(s.dur))
	}
	rep.set("wal.append_us", "us", median(spanUS(wa, opSubmit)))
	rep.set("wal.wait_p50_us", "us", pct(waits, 0.5))
	rep.set("wal.wait_p99_us", "us", pct(waits, 0.99))
	var fsyncs, bpr float64
	if ts.log != nil && ts.records > 0 {
		fsyncs = float64(ts.log.Stats().Fsyncs) / float64(ts.records)
		bpr = float64(dirBytes(walDir)) / float64(ts.records)
	}
	rep.set("wal.fsyncs_per_record", "ratio", fsyncs)
	rep.set("wal.bytes_per_record", "B", bpr)

	hd := tr.spans["handler"]
	rep.set("handler.submit_us", "us", median(spanUS(hd, opSubmit)))
	rep.set("handler.batch_job_us", "us", perJob(hd, ops))
	rep.set("handler.advance_us", "us", median(spanUS(hd, opAdvance)))
	rep.set("handler.allocs_per_submit", "count", allocsPer(hd, opSubmit))
	rep.set("handler.advance_self_us", "us", selfUS(tr, "handler", "tenant", opAdvance))

	lb := tr.spans["loopback"]
	rep.set("loopback.submit_us", "us", median(spanUS(lb, opSubmit)))
	rep.set("loopback.advance_us", "us", median(spanUS(lb, opAdvance)))
	rep.set("loopback.allocs_per_submit", "count", allocsPer(lb, opSubmit))
	rep.set("loopback.advance_self_us", "us", selfUS(tr, "loopback", "handler", opAdvance))

	rt := tr.spans["router"]
	rep.set("router.submit_us", "us", median(spanUS(rt, opSubmit)))
	rep.set("router.advance_self_us", "us", selfUS(tr, "router", "loopback", opAdvance))

	rep.set("repl.read_us", "us", median(repl.read))
	rep.set("repl.apply_us", "us", median(repl.apply))
	rep.set("repl.records", "count", float64(repl.records))

	rep.set("egress.encode_us", "us", eg.encodeUS)
	rep.set("egress.frame_us", "us", median(eg.frameUS))
	rep.set("egress.bytes_per_frame", "B", float64(eg.bytes)/float64(max(eg.frames, 1)))

	rep.set("obs.scrape_us", "us", median(scrapes))
	rep.set("trace.overhead_pct", "%", 100*(median(walls[1])-median(walls[0]))/median(walls[0]))
}

// genMetrics runs a short untraced end-to-end pass against real pfaird
// processes to measure the generator itself: how late it sent requests
// and how many it sent.
func genMetrics(ctx context.Context, sp *spec, cfg config, rep *report) error {
	e, err := setup(ctx, sp, cfg, 0)
	if err != nil {
		return err
	}
	defer e.stop()
	d := newFeeder(sp, -1)
	var ss []sample
	if sp.nominal.ops == nil {
		conns := make([]*client.Client, len(sp.closed))
		for i := range conns {
			conns[i] = newConn(e.front)
		}
		if ss, err = closedLoop(ctx, sp, e, d, conns, sp.measured()/5, 0, nil); err != nil {
			return err
		}
	} else {
		ph := sp.nominal
		ph.ops = ph.ops[:len(ph.ops)/2]
		ss = d.openLoop(ctx, &ph, newConn(e.front), time.Second)
	}
	var late []float64
	var tl tally
	tl.add(ss)
	for _, s := range ss {
		late = append(late, ms(s.late))
	}
	rep.set("gen.late_p99_ms", "ms", pct(late, 0.99))
	rep.set("gen.ops", "count", float64(len(ss)))
	sub, adv := latencies(ss, opSubmit, opBatch), latencies(ss, opAdvance)
	rep.set("gen.submit_p50_ms", "ms", median(sub))
	rep.set("gen.submit_p99_ms", "ms", pct(sub, 0.99))
	rep.set("gen.advance_p50_ms", "ms", median(adv))
	rep.set("gen.advance_p99_ms", "ms", pct(adv, 0.99))
	rep.Attempted, rep.Failed = tl.attempted, tl.failures()
	_, err = finish(ctx, sp, e, d)
	return err
}
