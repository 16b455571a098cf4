package middleware

import (
	"testing"
	"time"
)

// waitQueued spins until a holds n queued waiters or stop has a value.
func waitQueued(a *admission, n int, stop chan admitVerdict) {
	for a.queueLen() < n && len(stop) == 0 {
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionShedsExpiredFirst: a waiter whose deadline passes while it is
// queued leaves the queue on its own timer and is never granted a slot, even
// though it arrived first; the next freed slot goes to the in-budget waiter
// behind it.
func TestAdmissionShedsExpiredFirst(t *testing.T) {
	a := newAdmission(1, 8)
	if got := a.acquire(time.Second); got != admitOK {
		t.Fatal("setup acquire failed")
	}

	expired := make(chan admitVerdict, 1)
	go func() { expired <- a.acquire(100 * time.Millisecond) }()
	waitQueued(a, 1, expired)
	live := make(chan admitVerdict, 1)
	go func() { live <- a.acquire(10 * time.Second) }()
	waitQueued(a, 2, expired)

	if got := <-expired; got != admitTimeout {
		t.Fatalf("expired waiter = %v, want timeout", got)
	}
	if got := a.queueLen(); got != 1 {
		t.Fatalf("queue len after the expiry = %d, want 1 (the expired waiter left)", got)
	}
	a.release()
	select {
	case got := <-live:
		if got != admitOK {
			t.Fatalf("in-budget waiter = %v, want ok", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-budget waiter not granted within 2s")
	}
	if a.free != 0 || a.queueLen() != 0 {
		t.Errorf("after the handoff: free=%d queued=%d, want the slot held and the queue empty", a.free, a.queueLen())
	}
	a.release()
	if a.free != 1 {
		t.Errorf("free = %d after the last release, want 1", a.free)
	}
}

// TestAdmissionExpiredMakesRoom: a timed-out waiter frees its queue place,
// so a full queue whose only waiter expired does not 429 a fresh request.
func TestAdmissionExpiredMakesRoom(t *testing.T) {
	a := newAdmission(1, 1)
	if got := a.acquire(time.Second); got != admitOK {
		t.Fatal("setup acquire failed")
	}

	// The only queue place is taken, then freed by the waiter's own timer.
	if got := a.acquire(20 * time.Millisecond); got != admitTimeout {
		t.Fatalf("waiter on a held slot = %v, want timeout", got)
	}
	if got := a.queueLen(); got != 0 {
		t.Fatalf("queue len after the timeout = %d, want 0", got)
	}

	// A fresh request takes the freed place and is granted the next slot.
	done := make(chan admitVerdict, 1)
	go func() { done <- a.acquire(10 * time.Second) }()
	waitQueued(a, 1, done)

	// Control: with a live waiter in the only place, a newcomer is shed busy.
	if got := a.acquire(time.Second); got != admitBusy {
		t.Fatalf("acquire over a live queue = %v, want busy", got)
	}
	a.release()
	if got := <-done; got != admitOK {
		t.Fatalf("queued request = %v, want ok", got)
	}
	a.release()
}

// TestAdmissionEndToEndPriority drives the real goroutine path: freed slots
// go to waiters in arrival order. The first waiter has the looser deadline
// and is still served first.
func TestAdmissionEndToEndPriority(t *testing.T) {
	a := newAdmission(1, 4)
	if got := a.acquire(time.Second); got != admitOK {
		t.Fatal("setup acquire failed")
	}

	firstDone := make(chan admitVerdict, 1)
	go func() { firstDone <- a.acquire(10 * time.Second) }()
	waitQueued(a, 1, firstDone)
	secondDone := make(chan admitVerdict, 1)
	go func() { secondDone <- a.acquire(5 * time.Second) }()
	waitQueued(a, 2, secondDone)

	a.release()
	select {
	case got := <-firstDone:
		if got != admitOK {
			t.Fatalf("first waiter = %v, want ok", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("first waiter not granted within 2s")
	}
	select {
	case got := <-secondDone:
		t.Fatalf("second waiter returned %v before a second release", got)
	default:
	}

	a.release()
	select {
	case got := <-secondDone:
		if got != admitOK {
			t.Fatalf("second waiter = %v, want ok", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second waiter not granted within 2s")
	}
	a.release()
}
