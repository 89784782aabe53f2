package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/server"
)

// A run sets the servers up setupsBefore times before the measurement
// (the last of these serves it) and setupsAfter times after it; setup_s
// is the median of them all. Timing set-ups on both sides of the load
// spreads them over the run, so one slow stretch of the host does not
// decide the figure.
const (
	setupsBefore = 10
	setupsAfter  = 10
)

// env is one set-up of a workload's servers.
type env struct {
	ps       procs
	leader   *proc
	follower *proc  // cluster-follow only
	front    string // URL the load is sent to (pfair-router or pfaird)
	hc       *http.Client
}

func (e *env) stop() { e.ps.stop() }

func (e *env) servers() []*proc {
	if e.follower != nil {
		return []*proc{e.leader, e.follower}
	}
	return []*proc{e.leader}
}

// setup starts the workload's servers, registers its tenants and tasks
// and, on cluster-follow, waits until the follower has caught up.
func setup(ctx context.Context, sp *spec, cfg config, idx int) (e *env, err error) {
	e = &env{hc: &http.Client{Timeout: 30 * time.Second}}
	defer func() {
		if err != nil {
			e.stop()
		}
	}()
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("setup%d", idx))
	dataDir := func(name string) string {
		if !sp.durable {
			return ""
		}
		return filepath.Join(dir, name)
	}
	if e.leader, err = startPfaird(ctx, cfg, "pfaird", dataDir("leader"), "", sp.leaderFlags...); err != nil {
		return e, err
	}
	e.ps = append(e.ps, e.leader)
	e.front = e.leader.url
	if err := waitOK(ctx, e.hc, e.leader.url+"/healthz"); err != nil {
		return e, err
	}
	if sp.workload == "cluster-follow" {
		if e.follower, err = startPfaird(ctx, cfg, "pfaird-follower", dataDir("follower"), e.leader.url); err != nil {
			return e, err
		}
		e.ps = append(e.ps, e.follower)
		router, err := startRouter(ctx, cfg, e.leader.url, e.follower.url)
		if err != nil {
			return e, err
		}
		e.ps = append(e.ps, router)
		e.front = router.url
		if err := waitOK(ctx, e.hc, router.url+"/healthz"); err != nil {
			return e, err
		}
	}
	c := client.New(e.front, e.hc)
	for t := 0; t < sp.tenants; t++ {
		if _, err := c.CreateTenant(ctx, tenantID(t), sp.m, ""); err != nil {
			return e, fmt.Errorf("create tenant %s: %w", tenantID(t), err)
		}
		if err := registerTasks(ctx, e.front, tenantID(t), sp.tasks); err != nil {
			return e, err
		}
	}
	if e.follower != nil {
		if err := e.caughtUp(ctx, 30*time.Second); err != nil {
			return e, err
		}
	}
	return e, nil
}

// registerTasks registers tasks in t in order, as one pipelined
// HTTP/1.1 stream on one connection: every request is written without
// waiting for the previous response, and pfaird serves them one after
// another. Set-up time is then pfaird's registration work, not a
// thousand loopback round trips whose wake-up latency swings with the
// host's load.
func registerTasks(ctx context.Context, base, t string, tasks []taskSpec) error {
	host := strings.TrimPrefix(base, "http://")
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", host)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return err
	}
	werr := make(chan error, 1)
	go func() {
		w := bufio.NewWriter(conn)
		for _, ts := range tasks {
			body, _ := json.Marshal(server.RegisterTaskRequest{Name: ts.name, E: ts.e, P: ts.p})
			fmt.Fprintf(w, "POST /v1/tenants/%s/tasks HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", t, host, len(body))
			w.Write(body)
		}
		werr <- w.Flush()
	}()
	r := bufio.NewReader(conn)
	for _, ts := range tasks {
		resp, err := http.ReadResponse(r, nil)
		if err != nil {
			return fmt.Errorf("register %s/%s: %w", t, ts.name, err)
		}
		var out server.RegisterTaskResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK || err != nil || !out.Admitted {
			return fmt.Errorf("register %s/%s: HTTP %d %v %s", t, ts.name, resp.StatusCode, err, out.Reason)
		}
	}
	return <-werr
}

func getJSON(ctx context.Context, hc *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// caughtUp waits until the follower has applied everything the leader
// has written.
func (e *env) caughtUp(ctx context.Context, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		var ls, fs server.ReplStatusResponse
		if err := getJSON(ctx, e.hc, e.leader.url+"/v1/replication/status", &ls); err != nil {
			return err
		}
		if err := getJSON(ctx, e.hc, e.follower.url+"/v1/replication/status", &fs); err != nil {
			return err
		}
		if fs.AppliedLSN >= ls.WrittenLSN && !fs.Bootstrapping {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at LSN %d, leader wrote %d", fs.AppliedLSN, ls.WrittenLSN)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// timedSetups sets up n times from index first on, tearing down all
// but the last when keep is set (every one otherwise), and returns the
// set-up times with the kept set-up.
func timedSetups(ctx context.Context, sp *spec, cfg config, first, n int, keep bool) ([]float64, *env, error) {
	var secs []float64
	for i := first; i < first+n; i++ {
		t0 := time.Now()
		e, err := setup(ctx, sp, cfg, i)
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if keep && i == first+n-1 {
			return secs, e, nil
		}
		e.stop()
		if err := os.RemoveAll(filepath.Join(cfg.workDir, fmt.Sprintf("setup%d", i))); err != nil {
			return nil, nil, err
		}
	}
	return secs, nil, nil
}

func runEndToEnd(ctx context.Context, sp *spec, cfg config) (*report, error) {
	rep := &report{}
	secs, e, err := timedSetups(ctx, sp, cfg, 0, setupsBefore, true)
	if err != nil {
		return rep, err
	}
	if sp.workload == "cluster-follow" {
		err = runClusterFollow(ctx, sp, e, rep)
	} else {
		err = runClosed(ctx, sp, e, rep)
	}
	e.stop()
	if err != nil {
		return rep, err
	}
	if err := os.RemoveAll(filepath.Join(cfg.workDir, fmt.Sprintf("setup%d", setupsBefore-1))); err != nil {
		return rep, err
	}
	after, _, err := timedSetups(ctx, sp, cfg, setupsBefore, setupsAfter, false)
	if err != nil {
		return rep, err
	}
	rep.set("setup_s", "s", median(append(secs, after...)))
	return rep, nil
}

// setDelivery reports the median delivery latency. Submit and advance
// latencies are reported by the traced run's generator pass instead
// (gen.*_p50_ms, gen.*_p99_ms): on a 2-vCPU VM whose CPUs other guests
// take in bursts, an open loop's request latency swings by more than any
// bound a gate could use (median up to 4× from one run to the next).
func setDelivery(rep *report, delivery []sample) {
	rep.set("delivery_p50_ms", "ms", median(latencies(delivery, opAdvance)))
}

// finish runs the checks shared by every workload and returns the
// served dispatch logs.
func finish(ctx context.Context, sp *spec, e *env, d *feeder) ([][]server.DispatchEvent, error) {
	c := client.New(e.leader.url, e.hc)
	if err := checkTardiness(ctx, c, sp); err != nil {
		return nil, err
	}
	return checkReplay(ctx, c, sp, d)
}

// heapOf reports the live heap summed over the workload's pfaird
// processes.
func heapOf(ctx context.Context, e *env, rep *report) error {
	var total float64
	for _, p := range e.servers() {
		mb, err := heapMB(ctx, e.hc, p.url)
		if err != nil {
			return err
		}
		total += mb
	}
	rep.set("server_heap_mb", "MiB", total)
	return nil
}
