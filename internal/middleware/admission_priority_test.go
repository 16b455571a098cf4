package middleware

import (
	"container/heap"
	"testing"
	"time"
)

// TestAdmissionShedsExpiredFirst is the overload-goodput invariant: when a
// slot frees up, waiters whose budget-derived deadlines already passed are
// shed (never granted), and the slot goes to an in-budget waiter. White-box:
// waiters are placed on the queue directly so expiry is deterministic.
func TestAdmissionShedsExpiredFirst(t *testing.T) {
	a := newAdmission(1, 8)
	if got := a.acquire(time.Second); got != admitOK {
		t.Fatal("setup acquire failed")
	}

	now := time.Now()
	a.now = func() time.Time { return now }
	expired := &waiter{deadline: now.Add(-50 * time.Millisecond), seq: 0, ch: make(chan struct{})}
	inBudget := &waiter{deadline: now.Add(time.Minute), seq: 1, ch: make(chan struct{})}
	a.mu.Lock()
	heap.Push(&a.queue, expired)
	heap.Push(&a.queue, inBudget)
	a.mu.Unlock()

	a.release()

	select {
	case <-inBudget.ch:
	default:
		t.Fatal("in-budget waiter was not granted the freed slot")
	}
	select {
	case <-expired.ch:
		t.Fatal("expired waiter was granted a slot")
	default:
	}
	if !inBudget.granted || expired.granted {
		t.Errorf("granted flags: expired=%v inBudget=%v", expired.granted, inBudget.granted)
	}
	if got := a.queueLen(); got != 0 {
		t.Errorf("queue len after release = %d, want 0 (expired shed)", got)
	}
}

// TestAdmissionTightestDeadlineFirst: with several in-budget waiters queued,
// freed slots go to the tightest deadline first, not FIFO.
func TestAdmissionTightestDeadlineFirst(t *testing.T) {
	a := newAdmission(1, 8)
	if got := a.acquire(time.Second); got != admitOK {
		t.Fatal("setup acquire failed")
	}

	now := time.Now()
	a.now = func() time.Time { return now }
	loose := &waiter{deadline: now.Add(time.Hour), seq: 0, ch: make(chan struct{})} // arrived first
	tight := &waiter{deadline: now.Add(time.Minute), seq: 1, ch: make(chan struct{})}
	a.mu.Lock()
	heap.Push(&a.queue, loose)
	heap.Push(&a.queue, tight)
	a.mu.Unlock()

	a.release()
	if !tight.granted || loose.granted {
		t.Fatalf("first release: tight=%v loose=%v, want tightest-deadline-first", tight.granted, loose.granted)
	}
	a.release()
	if !loose.granted {
		t.Fatal("second release did not grant the remaining waiter")
	}
}

// TestAdmissionExpiredMakesRoom: a full queue of expired waiters does not
// 429 a fresh in-budget request — the expired ones are shed to make room.
func TestAdmissionExpiredMakesRoom(t *testing.T) {
	a := newAdmission(1, 1)
	if got := a.acquire(time.Second); got != admitOK {
		t.Fatal("setup acquire failed")
	}

	now := time.Now()
	a.now = func() time.Time { return now }
	expired := &waiter{deadline: now.Add(-time.Millisecond), seq: 0, ch: make(chan struct{})}
	a.mu.Lock()
	heap.Push(&a.queue, expired)
	a.mu.Unlock()

	// Queue is at maxQueue=1, but its only occupant is expired: the fresh
	// request must queue (then time out on its own short deadline) instead
	// of being rejected busy.
	if got := a.acquire(20 * time.Millisecond); got != admitTimeout {
		t.Fatalf("acquire over expired queue = %v, want timeout (queued)", got)
	}

	// Control: with an in-budget occupant the same acquire is shed busy.
	inBudget := &waiter{deadline: now.Add(time.Hour), seq: 1, ch: make(chan struct{})}
	a.mu.Lock()
	a.queue = a.queue[:0]
	heap.Push(&a.queue, inBudget)
	a.mu.Unlock()
	if got := a.acquire(20 * time.Millisecond); got != admitBusy {
		t.Fatalf("acquire over in-budget queue = %v, want busy", got)
	}
}

// TestAdmissionEndToEndPriority drives the real goroutine path: a loose-
// deadline waiter queues first, a tight-deadline waiter queues second, and
// the first freed slot still goes to the tight one.
func TestAdmissionEndToEndPriority(t *testing.T) {
	a := newAdmission(1, 4)
	if got := a.acquire(time.Second); got != admitOK {
		t.Fatal("setup acquire failed")
	}

	looseDone := make(chan admitVerdict, 1)
	go func() { looseDone <- a.acquire(10 * time.Second) }()
	for a.queueLen() == 0 {
		time.Sleep(time.Millisecond)
	}
	tightDone := make(chan admitVerdict, 1)
	go func() { tightDone <- a.acquire(5 * time.Second) }()
	for a.queueLen() < 2 {
		time.Sleep(time.Millisecond)
	}

	a.release()
	select {
	case got := <-tightDone:
		if got != admitOK {
			t.Fatalf("tight waiter = %v, want ok", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("tight waiter not granted within 2s")
	}
	select {
	case got := <-looseDone:
		t.Fatalf("loose waiter returned %v before a second release", got)
	default:
	}

	a.release()
	select {
	case got := <-looseDone:
		if got != admitOK {
			t.Fatalf("loose waiter = %v, want ok", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("loose waiter not granted within 2s")
	}
	a.release()
}
