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
// Speculative prefetches take a slot only out of idle capacity and never
// wait (tryPrefetch): more than `reserve` slots free, no live waiter queued
// and fewer than maxHeld prefetch slots held — or no slot at all. A
// prefetch therefore never queues, never counts against the live queue
// bound, and can never turn a live request's verdict into a 429; the
// reserve slot keeps at least one slot a live request can take without
// waiting behind speculative work.
type admission struct {
	mu       sync.Mutex
	free     int // slots not currently held
	reserve  int // slots never granted to a prefetch
	maxQueue int
	queue    waiterQueue
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
	return &admission{free: capacity, reserve: 1, maxQueue: maxQueue, maxHeld: maxHeld, now: time.Now}
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

// tryPrefetch takes a worker slot for a speculative prefetch if one is idle
// — more than `reserve` slots free, no live waiter queued, and the prefetch
// hold cap not reached — and reports whether it did. It never waits: a
// prediction that finds no idle slot is shed, since the predictor issues a
// fresh one at the session's next step. A nil admission always admits.
func (a *admission) tryPrefetch() bool {
	if a == nil {
		return true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.free <= a.reserve || len(a.queue) > 0 || a.prefetchHeld >= a.maxHeld {
		return false
	}
	a.free--
	a.prefetchHeld++
	return true
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
// waiters are shed on the way. With no feasible live waiter the slot goes
// back to the pool.
func (a *admission) release() { a.releaseSlot(false) }

// releasePrefetch returns a slot taken by a successful tryPrefetch,
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
	a.free++
	a.mu.Unlock()
}

// queueLen reports the current number of queued live waiters — the
// admission queue-depth gauge /metrics exposes.
func (a *admission) queueLen() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}
