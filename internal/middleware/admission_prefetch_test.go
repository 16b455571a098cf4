package middleware

import (
	"testing"
	"time"
)

// White-box tests for prefetch admission. The contract under test:
// speculative work takes a slot only out of idle capacity, never waits for
// one, and can never turn a live request's verdict into a rejection.

// TestPrefetchIdleOnlyAdmission: a prefetch is admitted iff more than the
// reserve is free and no live waiter is queued.
func TestPrefetchIdleOnlyAdmission(t *testing.T) {
	a := newAdmission(4, 4)
	// Fully idle: admitted.
	if !a.tryPrefetch() {
		t.Fatal("idle pool refused a prefetch")
	}
	a.releasePrefetch()

	// Two live holders leave free=2 > reserve=1: still admitted.
	if a.acquire(0) != admitOK || a.acquire(0) != admitOK {
		t.Fatal("live acquire failed on an idle pool")
	}
	if !a.tryPrefetch() {
		t.Fatal("pool with idle capacity refused a prefetch")
	}
	a.releasePrefetch()

	// Three live holders leave free=1 == reserve: refused.
	if a.acquire(0) != admitOK {
		t.Fatal("live acquire failed")
	}
	if a.tryPrefetch() {
		t.Fatal("prefetch took the reserve slot")
	}
	a.release()
	a.release()
	a.release()

	// A queued live waiter shuts prefetch out even with idle slots.
	a.queue = append(a.queue, make(chan struct{}, 1))
	if a.tryPrefetch() {
		t.Fatal("prefetch admitted while a live waiter is queued")
	}
	if a.free != 4 || a.prefetchHeld != 0 {
		t.Fatalf("refused prefetch changed the pool: free=%d held=%d", a.free, a.prefetchHeld)
	}

	// A nil admission (admission control disabled) admits everything.
	var nilA *admission
	if !nilA.tryPrefetch() {
		t.Fatal("nil admission refused a prefetch")
	}
}

// TestPrefetchHoldCap: concurrently-held prefetch slots are capped at
// capacity/4 even when the pool is otherwise idle.
func TestPrefetchHoldCap(t *testing.T) {
	a := newAdmission(8, 8) // maxHeld = 2
	if !a.tryPrefetch() || !a.tryPrefetch() {
		t.Fatal("idle pool refused prefetches under the hold cap")
	}
	if a.tryPrefetch() {
		t.Fatal("third concurrent prefetch exceeded the hold cap on an idle pool")
	}
	a.releasePrefetch()
	if !a.tryPrefetch() {
		t.Fatal("hold-cap slot not reusable after release")
	}
	a.releasePrefetch()
	a.releasePrefetch()
}

// TestPrefetchNeverCausesLiveRejection: a held prefetch slot never flips a
// live verdict to admitBusy that idle capacity would have served, refused
// prefetches leave the live queue untouched, and a freed prefetch slot goes
// straight to a queued live request.
func TestPrefetchNeverCausesLiveRejection(t *testing.T) {
	a := newAdmission(4, 1)
	if !a.tryPrefetch() {
		t.Fatal("idle pool refused a prefetch")
	}
	// Live requests still get every non-prefetch slot without queuing.
	for i := 0; i < 3; i++ {
		if v := a.acquire(0); v != admitOK {
			t.Fatalf("live acquire %d got %v with a prefetch holding a slot", i, v)
		}
	}
	// The pool is full: prefetches are refused on the spot and never queue.
	for i := 0; i < 8; i++ {
		if a.tryPrefetch() {
			t.Fatal("prefetch admitted into a full pool")
		}
	}
	if n := a.queueLen(); n != 0 {
		t.Fatalf("refused prefetches left %d waiters queued", n)
	}
	// Exactly maxQueue live waiters may queue, untouched by the refusals.
	done := make(chan admitVerdict, 1)
	go func() { done <- a.acquire(time.Second) }()
	waitFor(t, func() bool { return a.queueLen() == 1 })
	// Release the prefetch slot: the queued live request takes it directly.
	a.releasePrefetch()
	if v := <-done; v != admitOK {
		t.Fatalf("queued live request got %v after a prefetch slot freed", v)
	}
	a.release()
	a.release()
	a.release()
	a.release()
}

// TestPrefetchNeverBlocks: with every slot held by live requests,
// Server.Prefetch returns at once and counts exactly one shed.
func TestPrefetchNeverBlocks(t *testing.T) {
	s := testServer(t)
	defer s.Close()
	for i := 0; i < s.cfg.MaxConcurrent; i++ {
		if s.admit.acquire(0) != admitOK {
			t.Fatalf("live acquire %d failed on an idle pool", i)
		}
	}
	start := time.Now()
	s.Prefetch(validRequest())
	// A waiting prefetch would sit out a queue timeout (250 ms or more).
	if took := time.Since(start); took > 200*time.Millisecond {
		t.Fatalf("Prefetch into a saturated pool took %v; it must not wait", took)
	}
	if issued, shed := s.metrics.prefetchIssued.Load(), s.metrics.prefetchShed.Load(); issued != 1 || shed != 1 {
		t.Fatalf("issued=%d shed=%d, want 1 and 1", issued, shed)
	}
	if n := s.admit.queueLen(); n != 0 {
		t.Fatalf("a shed prefetch left %d waiters queued", n)
	}
	for i := 0; i < s.cfg.MaxConcurrent; i++ {
		s.admit.release()
	}
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
