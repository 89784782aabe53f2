package online

import (
	"desyncpfair/internal/model"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/rat"
)

// Task heads — the first undispatched subtask of each task — live in
// exactly one of two heaps, so each holds at most one entry per task and
// neither grows with uptime:
//
//   - the wait heap holds heads that are not ready yet, keyed by
//     activation time: eligibility for a task's first subtask,
//     max(eligibility, predecessor completion) afterwards. Both components
//     are always in the timeline, so a head moves to the ready heap at the
//     first event at which a rescan of all tasks would see it ready. Ties
//     in activation time may pop in any order; the ready heap re-orders
//     them before any decision reads them.
//   - the ready heap holds ready heads ordered by the engine's total order
//     (policy, then task ID, then sequence position), each entry carrying
//     its prio.Key by value, so popping it returns exactly the subtask the
//     rescan would select, in O(log N).

type waitEntry struct {
	at  rat.Rat
	sub *model.Subtask
}

type readyEntry struct {
	key prio.Key
	sub *model.Subtask
}

func newWaitHeap() minHeap[waitEntry] {
	return minHeap[waitEntry]{less: func(a, b *waitEntry) bool { return a.at.Less(b.at) }}
}

func newReadyHeap(p prio.Policy) minHeap[readyEntry] {
	ord := prio.NewKeyOrder(p)
	return minHeap[readyEntry]{less: func(a, b *readyEntry) bool {
		return ord.Total(a.sub, &a.key, b.sub, &b.key) < 0
	}}
}

// minHeap is a binary min-heap under less.
type minHeap[T any] struct {
	xs   []T
	less func(a, b *T) bool
}

func (h *minHeap[T]) len() int { return len(h.xs) }

// top returns the minimum without removing it. It panics on an empty heap.
func (h *minHeap[T]) top() *T { return &h.xs[0] }

func (h *minHeap[T]) push(x T) {
	xs := append(h.xs, x)
	for i := len(xs) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(&xs[i], &xs[p]) {
			break
		}
		xs[i], xs[p] = xs[p], xs[i]
		i = p
	}
	h.xs = xs
}

// pop removes and returns the minimum. It panics on an empty heap.
func (h *minHeap[T]) pop() T {
	xs := h.xs
	top := xs[0]
	n := len(xs) - 1
	xs[0] = xs[n]
	var zero T
	xs[n] = zero // drop the subtask reference
	xs = xs[:n]
	for i := 0; ; {
		l, r, min := 2*i+1, 2*i+2, i
		if l < n && h.less(&xs[l], &xs[min]) {
			min = l
		}
		if r < n && h.less(&xs[r], &xs[min]) {
			min = r
		}
		if min == i {
			break
		}
		xs[i], xs[min] = xs[min], xs[i]
		i = min
	}
	h.xs = xs
	return top
}
