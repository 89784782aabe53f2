package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one server process under test.
type proc struct {
	name string
	cmd  *exec.Cmd
	url  string // base URL once listening
	done chan struct{}

	mu   sync.Mutex
	tail []string // last lines of its log, for error reports
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startProc runs bin with args and waits until it logs its listen address.
// The process is killed if the benchmark dies (Pdeathsig).
func startProc(ctx context.Context, name, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, done: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
			p.mu.Lock()
			if p.tail = append(p.tail, line); len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
		}
		io.Copy(io.Discard, stderr)
		_ = p.cmd.Wait()
		close(p.done)
	}()
	select {
	case a := <-addr:
		p.url = "http://" + a
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before listening: %s", name, p.log())
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not start listening within 30s", name)
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	}
}

func (p *proc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, " | ")
}

// stop ends the process (SIGTERM, then SIGKILL after 5s) and waits for it.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// procs is every process a workload set up, stopped in reverse order.
type procs []*proc

func (ps procs) stop() {
	for i := len(ps) - 1; i >= 0; i-- {
		ps[i].stop()
	}
}

// startPfaird starts one pfaird on a free loopback port. dataDir "" runs
// it in memory; follow is the leader URL of a replica; extra are the
// workload's own flags.
func startPfaird(ctx context.Context, cfg config, name, dataDir, follow string, extra ...string) (*proc, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	if follow != "" {
		args = append(args, "-follow", follow)
	}
	return startProc(ctx, name, filepath.Join(cfg.binDir, "pfaird"), args...)
}

func startRouter(ctx context.Context, cfg config, backends ...string) (*proc, error) {
	return startProc(ctx, "pfair-router", filepath.Join(cfg.binDir, "pfair-router"),
		"-addr", "127.0.0.1:0", "-backends", strings.Join(backends, ","))
}

// waitOK polls url until it answers 200.
func waitOK(ctx context.Context, hc *http.Client, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within 30s (last error %v)", url, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

var heapAllocRE = regexp.MustCompile(`(?m)^# HeapAlloc = (\d+)`)

// heapMB reads a pfaird's live heap after forced GCs. It reads twice and
// keeps the second: a GC only moves sync.Pool caches (such as pfaird's
// WAL frame buffers, which a snapshot can grow to megabytes) to a victim
// cache that the next GC frees, so one forced GC leaves a reading that
// depends on how many GCs ran since the last snapshot.
func heapMB(ctx context.Context, hc *http.Client, base string) (float64, error) {
	var body []byte
	for range 2 {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/debug/pprof/heap?gc=1&debug=1", nil)
		if err != nil {
			return 0, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return 0, err
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
	}
	m := heapAllocRE.FindSubmatch(body)
	if m == nil {
		return 0, fmt.Errorf("%s: no HeapAlloc in heap profile", base)
	}
	n, err := strconv.ParseInt(string(m[1]), 10, 64)
	return float64(n) / (1 << 20), err
}
