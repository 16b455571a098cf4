package middleware

import (
	"container/heap"
	"sync"
	"time"
)

// admitVerdict is the outcome of an admission attempt.
type admitVerdict int

const (
	// admitOK: a worker slot was acquired; the caller must release it.
	admitOK admitVerdict = iota
	// admitBusy: all slots taken and the wait queue is full — shed load
	// immediately (HTTP 429).
	admitBusy
	// admitTimeout: the request queued but its deadline expired before a
	// slot freed up (HTTP 503); running it now would blow the budget anyway.
	admitTimeout
)

// waiter is one queued request: its admission deadline (now + the
// budget-derived wait), an arrival sequence number for FIFO tie-breaking,
// and the channel a freed slot is handed over on.
type waiter struct {
	deadline time.Time
	seq      uint64
	ch       chan struct{}
	index    int // heap position; -1 once off the queue
	granted  bool
}

// waiterQueue is a min-heap ordered by deadline (tightest first), FIFO
// within equal deadlines.
type waiterQueue []*waiter

func (q waiterQueue) Len() int { return len(q) }
func (q waiterQueue) Less(i, j int) bool {
	if !q[i].deadline.Equal(q[j].deadline) {
		return q[i].deadline.Before(q[j].deadline)
	}
	return q[i].seq < q[j].seq
}
func (q waiterQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *waiterQueue) Push(x any) {
	w := x.(*waiter)
	w.index = len(*q)
	*q = append(*q, w)
}
func (q *waiterQueue) Pop() any {
	old := *q
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*q = old[:n-1]
	return w
}

// admission is a bounded worker pool with a bounded, budget-aware wait
// queue: at most `capacity` requests execute concurrently and at most
// `maxQueue` more wait. Unlike a FIFO channel, the queue is a deadline
// priority queue — freed slots go to the waiter with the tightest
// still-feasible deadline, and waiters whose budgets have already expired
// are shed first (skipped on handoff and pruned to make room), so goodput
// under sustained overload favors requests that can still meet their
// budgets. Everything beyond queue capacity is rejected instantly.
//
// A second, strictly lower-priority lane admits speculative prefetches
// (acquirePrefetch): a prefetch is admitted only out of idle capacity —
// more than `reserve` slots free and no live waiter queued — and a freed
// slot is always offered to every feasible live waiter before any prefetch
// waiter. Prefetch waiters never count against the live queue bound, so a
// prefetch can never turn a live request's admission verdict into a 429,
// and the reserve slot keeps at least one slot a live request can take
// without waiting behind speculative work.
type admission struct {
	mu       sync.Mutex
	capacity int // total worker slots
	free     int // slots not currently held
	reserve  int // slots never granted to the prefetch lane
	maxQueue int
	queue    waiterQueue
	// prefetchQ is the prefetch lane's own (bounded) deadline queue; its
	// waiters are shed first and served last.
	prefetchQ waiterQueue
	// prefetchHeld counts slots currently held by admitted prefetches;
	// maxHeld caps it well below capacity so speculative executions can
	// occupy at most a sliver of the pool — without the cap a burst of
	// admitted prefetches holds capacity-reserve slots for a full execution
	// and live requests queue behind speculative work.
	prefetchHeld int
	maxHeld      int
	seq          uint64
	// now is the deadline clock (tests); timers still use real time.
	now func() time.Time
}

// prefetchQueue bounds the prefetch lane's wait queue. Prefetches are cheap
// to shed (the predictor re-issues equivalent ones every step), so the bound
// is modest.
const prefetchQueue = 64

// newAdmission sizes the pool. capacity <= 0 disables admission control
// (returns nil; the nil methods admit everything).
func newAdmission(capacity, maxQueue int) *admission {
	if capacity <= 0 {
		return nil
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	maxHeld := capacity / 4
	if maxHeld < 1 {
		maxHeld = 1
	}
	return &admission{capacity: capacity, free: capacity, reserve: 1, maxQueue: maxQueue, maxHeld: maxHeld, now: time.Now}
}

// acquire tries to take a worker slot, waiting at most wait (the request's
// budget-derived deadline). A nil admission always admits.
func (a *admission) acquire(wait time.Duration) admitVerdict {
	if a == nil {
		return admitOK
	}
	now := a.now()
	a.mu.Lock()
	if a.free > 0 {
		a.free--
		a.mu.Unlock()
		return admitOK
	}
	// Queue full? Shed already-expired waiters first — they cannot meet
	// their budgets anyway — and only reject the newcomer if the queue is
	// still full of in-budget requests.
	if len(a.queue) >= a.maxQueue {
		shedExpired(&a.queue, now)
		if len(a.queue) >= a.maxQueue {
			a.mu.Unlock()
			return admitBusy
		}
	}
	if wait <= 0 {
		a.mu.Unlock()
		return admitTimeout
	}
	w := &waiter{deadline: now.Add(wait), seq: a.seq, ch: make(chan struct{})}
	a.seq++
	heap.Push(&a.queue, w)
	a.mu.Unlock()

	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-w.ch:
		return admitOK
	case <-timer.C:
		a.mu.Lock()
		if w.granted {
			// release handed us a slot in the same instant the timer fired;
			// the slot is ours, so serve the request rather than strand it.
			a.mu.Unlock()
			return admitOK
		}
		if w.index >= 0 {
			heap.Remove(&a.queue, w.index)
		}
		a.mu.Unlock()
		return admitTimeout
	}
}

// acquirePrefetch tries to take a worker slot for a speculative prefetch.
// Admission comes only from idle capacity: more than `reserve` slots free
// and no live waiter queued. Otherwise the prefetch queues in its own
// bounded lane (shed first, served last) for at most wait. A nil admission
// always admits.
func (a *admission) acquirePrefetch(wait time.Duration) admitVerdict {
	if a == nil {
		return admitOK
	}
	now := a.now()
	a.mu.Lock()
	if a.free > a.reserve && len(a.queue) == 0 && a.prefetchHeld < a.maxHeld {
		a.free--
		a.prefetchHeld++
		a.mu.Unlock()
		return admitOK
	}
	shedExpired(&a.prefetchQ, now)
	if len(a.prefetchQ) >= prefetchQueue {
		a.mu.Unlock()
		return admitBusy
	}
	if wait <= 0 {
		a.mu.Unlock()
		return admitTimeout
	}
	w := &waiter{deadline: now.Add(wait), seq: a.seq, ch: make(chan struct{})}
	a.seq++
	heap.Push(&a.prefetchQ, w)
	a.mu.Unlock()

	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-w.ch:
		return admitOK
	case <-timer.C:
		a.mu.Lock()
		if w.granted {
			a.mu.Unlock()
			return admitOK
		}
		if w.index >= 0 {
			heap.Remove(&a.prefetchQ, w.index)
		}
		a.mu.Unlock()
		return admitTimeout
	}
}

// shedExpired drops waiters whose deadlines have passed. Their own timers
// report admitTimeout to them; shedding only frees queue capacity. Caller
// holds the admission mutex.
func shedExpired(q *waiterQueue, now time.Time) {
	for len(*q) > 0 && now.After((*q)[0].deadline) {
		heap.Pop(q)
	}
}

// release returns a slot taken by a successful acquire: the tightest-
// deadline live waiter still within budget gets it directly; expired
// waiters are shed on the way. With no feasible live waiter, a queued
// prefetch gets the slot — but only when handing it over still leaves the
// reserve free (idle capacity) and the prefetch hold cap isn't reached.
// Otherwise the slot goes back to the pool.
func (a *admission) release() { a.releaseSlot(false) }

// releasePrefetch returns a slot taken by a successful acquirePrefetch,
// additionally freeing the caller's entry in the prefetch hold count.
func (a *admission) releasePrefetch() { a.releaseSlot(true) }

func (a *admission) releaseSlot(heldByPrefetch bool) {
	if a == nil {
		return
	}
	now := a.now()
	a.mu.Lock()
	if heldByPrefetch {
		a.prefetchHeld--
	}
	for len(a.queue) > 0 {
		w := heap.Pop(&a.queue).(*waiter)
		if now.After(w.deadline) {
			continue // shed: its timer delivers admitTimeout
		}
		w.granted = true
		close(w.ch)
		a.mu.Unlock()
		return
	}
	if a.free >= a.reserve && a.prefetchHeld < a.maxHeld {
		for len(a.prefetchQ) > 0 {
			w := heap.Pop(&a.prefetchQ).(*waiter)
			if now.After(w.deadline) {
				continue
			}
			w.granted = true
			a.prefetchHeld++
			close(w.ch)
			a.mu.Unlock()
			return
		}
	}
	a.free++
	a.mu.Unlock()
}

// queueLen reports the current number of queued live waiters (for tests).
func (a *admission) queueLen() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}

// livePressure reports whether any live request currently holds a slot or
// waits for one. The background-yield hook polls this: speculative work
// parks while it's true, which is what turns "prefetch uses idle capacity
// only" from an admission-time rule into a CPU-time one. A nil admission
// never reports pressure.
func (a *admission) livePressure() bool {
	if a == nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return (a.capacity-a.free)-a.prefetchHeld > 0 || len(a.queue) > 0
}

// queueDepths reports the current live and prefetch queue depths — the
// per-lane admission gauge /metrics exposes.
func (a *admission) queueDepths() (live, prefetch int) {
	if a == nil {
		return 0, 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue), len(a.prefetchQ)
}
