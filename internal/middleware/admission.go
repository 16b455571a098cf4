package middleware

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// Admission sizing. One pool serves a whole gateway: defaultConcurrency
// slots execute at once, admitQueueCap more requests wait, and none waits
// longer than queueTimeout (or its budget read as real time, if shorter).
const (
	admitQueueCap = 256
	queueTimeout  = time.Second
)

// defaultConcurrency is the pool's slot count: 4×GOMAXPROCS.
func defaultConcurrency() int { return 4 * runtime.GOMAXPROCS(0) }

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

// admission is a bounded worker pool with a bounded FIFO wait queue: at
// most `capacity` requests execute concurrently and at most `maxQueue` more
// wait, each for at most its budget-derived deadline. A freed slot goes to
// the longest-waiting live waiter; a waiter whose deadline passes takes
// itself off the queue, so an expired waiter never holds a queue place or
// a slot. Everything beyond queue capacity is rejected instantly.
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
	// queue holds the live waiters in arrival order. Each channel has room
	// for the one slot release hands it, so release never blocks.
	queue []chan struct{}
	// prefetchHeld counts slots currently held by admitted prefetches;
	// maxHeld caps it well below capacity so speculative executions can
	// occupy at most a sliver of the pool — without the cap a burst of
	// admitted prefetches holds capacity-reserve slots for a full execution
	// and live requests queue behind speculative work.
	prefetchHeld int
	maxHeld      int
}

// newAdmission sizes the pool: capacity slots (capacity >= 1) and room for
// maxQueue waiters.
func newAdmission(capacity, maxQueue int) *admission {
	maxHeld := capacity / 4
	if maxHeld < 1 {
		maxHeld = 1
	}
	return &admission{free: capacity, reserve: 1, maxQueue: maxQueue, maxHeld: maxHeld}
}

// acquire tries to take a worker slot, waiting at most wait (the request's
// budget-derived deadline).
func (a *admission) acquire(wait time.Duration) admitVerdict {
	a.mu.Lock()
	if a.free > 0 {
		a.free--
		a.mu.Unlock()
		return admitOK
	}
	if len(a.queue) >= a.maxQueue {
		a.mu.Unlock()
		return admitBusy
	}
	if wait <= 0 {
		a.mu.Unlock()
		return admitTimeout
	}
	ch := make(chan struct{}, 1)
	a.queue = append(a.queue, ch)
	a.mu.Unlock()

	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-ch:
		return admitOK
	case <-timer.C:
		a.mu.Lock()
		defer a.mu.Unlock()
		if i := slices.Index(a.queue, ch); i >= 0 {
			a.queue = slices.Delete(a.queue, i, i+1)
			return admitTimeout
		}
		// release handed us a slot in the same instant the timer fired; the
		// slot is ours, so serve the request rather than strand it.
		return admitOK
	}
}

// tryPrefetch takes a worker slot for a speculative prefetch if one is idle
// — more than `reserve` slots free, no live waiter queued, and the prefetch
// hold cap not reached — and reports whether it did. It never waits: a
// prediction that finds no idle slot is shed, since the predictor issues a
// fresh one at the session's next step.
func (a *admission) tryPrefetch() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.free <= a.reserve || len(a.queue) > 0 || a.prefetchHeld >= a.maxHeld {
		return false
	}
	a.free--
	a.prefetchHeld++
	return true
}

// release returns a slot taken by a successful acquire: the first queued
// waiter gets it directly, and with no waiter the slot goes back to the pool.
func (a *admission) release() { a.releaseSlot(false) }

// releasePrefetch returns a slot taken by a successful tryPrefetch,
// additionally freeing the caller's entry in the prefetch hold count.
func (a *admission) releasePrefetch() { a.releaseSlot(true) }

func (a *admission) releaseSlot(heldByPrefetch bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if heldByPrefetch {
		a.prefetchHeld--
	}
	if len(a.queue) == 0 {
		a.free++
		return
	}
	a.queue[0] <- struct{}{}
	a.queue = slices.Delete(a.queue, 0, 1)
}

// queueLen reports the current number of queued live waiters — the
// admission queue-depth gauge /metrics exposes.
func (a *admission) queueLen() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}
