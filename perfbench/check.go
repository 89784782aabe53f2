package main

import (
	"context"
	"errors"
	"fmt"
	"io"

	"desyncpfair/internal/client"
	"desyncpfair/internal/model"
	"desyncpfair/internal/online"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/server"
)

// checkError is a failed correctness check: the run reports no numbers.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func checkFail(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// fetchLog reads a tenant's whole dispatch log (?follow=false).
func fetchLog(ctx context.Context, c *client.Client, tenant string) ([]server.DispatchEvent, error) {
	st, err := c.StreamDispatches(ctx, tenant, 0, false)
	if err != nil {
		return nil, fmt.Errorf("dispatch log of %s: %w", tenant, err)
	}
	defer st.Close()
	var evs []server.DispatchEvent
	for {
		ev, err := st.Next()
		if errors.Is(err, io.EOF) {
			return evs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("dispatch log of %s: %w", tenant, err)
		}
		evs = append(evs, ev)
	}
}

// checkTardiness is Theorem 3: every tenant's worst tardiness is at most
// one quantum.
func checkTardiness(ctx context.Context, c *client.Client, sp *spec) error {
	for t := 0; t < sp.tenants; t++ {
		info, err := c.Tenant(ctx, tenantID(t))
		if err != nil {
			return err
		}
		tard, err := rat.Parse(info.MaxTardiness)
		if err != nil {
			return err
		}
		if rat.FromInt(1).Less(tard) {
			return checkFail("tenant %s: max tardiness %s exceeds one quantum (Theorem 3)", info.ID, info.MaxTardiness)
		}
	}
	return nil
}

// replay runs a tenant's acked commands through an in-process
// online.Executive and returns the dispatch log pfaird should have made,
// in its wire form.
func replay(sp *spec, acks []acked) ([]server.DispatchEvent, error) {
	ex := online.New(sp.m, nil)
	tasks := make([]*model.Task, len(sp.tasks))
	for i, ts := range sp.tasks {
		t, err := ex.Register(ts.name, model.W(ts.e, ts.p))
		if err != nil {
			return nil, err
		}
		tasks[i] = t
	}
	var log []server.DispatchEvent
	ex.SetOnDispatch(func(d online.Dispatch) {
		deadline := d.Sub.Deadline()
		tard := d.Finish.Sub(rat.FromInt(deadline))
		if tard.Sign() < 0 {
			tard = rat.Zero
		}
		log = append(log, server.DispatchEvent{
			Seq: int64(len(log)), Task: d.Sub.Task.Name, Index: d.Sub.Index, Proc: d.Proc,
			Start: d.Start.String(), Finish: d.Finish.String(), Deadline: deadline, Tardiness: tard.String(),
		})
	})
	for _, a := range acks {
		if a.kind == opAdvance {
			now, err := rat.Parse(a.now)
			if err != nil {
				return nil, err
			}
			if err := ex.Run(now, nil, nil); err != nil {
				return nil, err
			}
			continue
		}
		for i, ti := range a.tasks {
			at, err := rat.Parse(a.at[i])
			if err != nil {
				return nil, err
			}
			if err := ex.SubmitJob(tasks[ti], at); err != nil {
				return nil, err
			}
		}
	}
	return log, nil
}

// diffLogs reports the first decision where got and want differ.
func diffLogs(what, tenant string, got, want []server.DispatchEvent) error {
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			return checkFail("tenant %s: %s diverges at decision %d: got %+v, want %+v", tenant, what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return checkFail("tenant %s: %s has %d decisions, want %d", tenant, what, len(got), len(want))
	}
	return nil
}

// checkReplay compares each tenant's served dispatch log with the
// in-process replay of the commands pfaird acked for it, and returns the
// served logs.
func checkReplay(ctx context.Context, c *client.Client, sp *spec, d *feeder) ([][]server.DispatchEvent, error) {
	logs := make([][]server.DispatchEvent, sp.tenants)
	for t := 0; t < sp.tenants; t++ {
		got, err := fetchLog(ctx, c, tenantID(t))
		if err != nil {
			return nil, err
		}
		want, err := replay(sp, d.acks[t])
		if err != nil {
			return nil, checkFail("tenant %s: replaying acked commands: %v", tenantID(t), err)
		}
		if err := diffLogs("dispatch log vs. online.Executive replay", tenantID(t), got, want); err != nil {
			return nil, err
		}
		logs[t] = got
	}
	return logs, nil
}
