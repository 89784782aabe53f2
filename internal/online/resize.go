package online

import (
	"fmt"
	"sort"

	"desyncpfair/internal/rat"
)

// M returns the current processor count.
func (e *Executive) M() int { return e.m }

// Resize changes the processor count to m. Capacity changes are safe at
// quantum boundaries because PD²-DVQ recomputes allocations there anyway
// (Cho & Easwaran's flow-network argument), so:
//
//   - A grow adds processors that become free at the next quantum boundary
//     ⌈now⌉ (immediately when now is integral), and queues a boundary event
//     so stalled pending work is picked up without waiting for an unrelated
//     completion.
//   - A shrink is admission-checked first: it is rejected while the active
//     utilization Σwt exceeds m, because Theorem 3's tardiness bound would
//     be lost for every admitted task. A feasible shrink keeps the m
//     busiest processors (latest freeAt, ties broken by index — a stable,
//     deterministic rule WAL replay reproduces exactly): in-flight quanta
//     run to completion, and from the shrink on at most m new quanta start
//     per slot.
//
// Like every Executive method it must run on the executive's single
// goroutine. A no-op resize (m unchanged) returns nil without touching any
// state.
func (e *Executive) Resize(m int) error {
	if m < 1 {
		return fmt.Errorf("online: resize to m=%d; need m ≥ 1", m)
	}
	if m == e.m {
		return nil
	}
	if m < e.m {
		if rat.FromInt(int64(m)).Less(e.activeUtil) {
			return fmt.Errorf("online: shrink to m=%d infeasible: active utilization %s > %d would void the tardiness bound",
				m, e.activeUtil, m)
		}
		// Keep the m latest-free processors so no in-flight quantum loses
		// its completion record and no new work starts while dropped
		// processors wind down.
		sort.SliceStable(e.freeAt, func(i, j int) bool { return e.freeAt[j].Less(e.freeAt[i]) })
		e.freeAt = e.freeAt[:m:m]
	} else {
		boundary := rat.FromInt(e.now.Ceil())
		for p := e.m; p < m; p++ {
			e.freeAt = append(e.freeAt, boundary)
		}
		e.push(boundary)
	}
	e.m = m
	// The schedule's M is the validation bound for per-slot parallelism and
	// processor indices over the whole history, so it only ever grows.
	e.maxM = max(e.maxM, m)
	return nil
}
