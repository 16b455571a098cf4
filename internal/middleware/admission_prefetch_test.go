package middleware

import (
	"testing"
	"time"
)

// White-box tests for the admission pool's prefetch lane. The contract under
// test: speculative work is admitted only out of idle capacity, is starved
// to zero by a saturated live workload, and can never turn a live request's
// verdict into a rejection.

// TestPrefetchIdleOnlyAdmission: a prefetch is admitted iff more than the
// reserve is free and no live waiter is queued.
func TestPrefetchIdleOnlyAdmission(t *testing.T) {
	a := newAdmission(4, 4) // wait 0: idle capacity or refusal, never a queue
	// Fully idle: admitted.
	if v := a.acquirePrefetch(0); v != admitOK {
		t.Fatalf("idle pool refused a prefetch: %v", v)
	}
	a.releasePrefetch()

	// Two live holders leave free=2 > reserve=1: still admitted.
	if a.acquire(0) != admitOK || a.acquire(0) != admitOK {
		t.Fatal("live acquire failed on an idle pool")
	}
	if v := a.acquirePrefetch(0); v != admitOK {
		t.Fatalf("pool with idle capacity refused a prefetch: %v", v)
	}
	a.releasePrefetch()

	// Three live holders leave free=1 == reserve: refused.
	if a.acquire(0) != admitOK {
		t.Fatal("live acquire failed")
	}
	if v := a.acquirePrefetch(0); v == admitOK {
		t.Fatal("prefetch took the reserve slot")
	}
	a.release()
	a.release()
	a.release()
}

// TestPrefetchHoldCap: concurrently-held prefetch slots are capped at
// capacity/4 even when the pool is otherwise idle.
func TestPrefetchHoldCap(t *testing.T) {
	a := newAdmission(8, 8) // maxHeld = 2
	if a.acquirePrefetch(0) != admitOK || a.acquirePrefetch(0) != admitOK {
		t.Fatal("idle pool refused prefetches under the hold cap")
	}
	if v := a.acquirePrefetch(0); v == admitOK {
		t.Fatal("third concurrent prefetch exceeded the hold cap on an idle pool")
	}
	a.releasePrefetch()
	if v := a.acquirePrefetch(0); v != admitOK {
		t.Fatalf("hold-cap slot not reusable after release: %v", v)
	}
	a.releasePrefetch()
	a.releasePrefetch()
}

// TestLiveStarvesPrefetchNeverReverse is the starvation direction test: under
// a saturated live workload, queued prefetches get nothing — and queued live
// requests always beat queued prefetches to freed slots.
func TestLiveStarvesPrefetchNeverReverse(t *testing.T) {
	a := newAdmission(2, 4)
	// Saturate: both slots held by live requests.
	if a.acquire(0) != admitOK || a.acquire(0) != admitOK {
		t.Fatal("live acquire failed on an idle pool")
	}

	// A prefetch queues in its own lane.
	prefetchDone := make(chan admitVerdict, 1)
	go func() { prefetchDone <- a.acquirePrefetch(60 * time.Millisecond) }()
	waitFor(t, func() bool { _, p := a.queueDepths(); return p == 1 })

	// Live waiters arrive after the prefetch.
	liveDone := make(chan admitVerdict, 2)
	for i := 0; i < 2; i++ {
		go func() { liveDone <- a.acquire(time.Second) }()
	}
	waitFor(t, func() bool { l, _ := a.queueDepths(); return l == 2 })

	// Each release must go to a live waiter, never the queued prefetch
	// (handing a slot to a live waiter keeps the pool saturated, and on the
	// last release the reserve rule still shuts the prefetch out).
	a.release()
	a.release()
	for i := 0; i < 2; i++ {
		select {
		case v := <-liveDone:
			if v != admitOK {
				t.Fatalf("live waiter got %v while a prefetch was queued", v)
			}
		case <-time.After(time.Second):
			t.Fatal("live waiter starved")
		}
	}
	// The prefetch lane saw nothing and times out.
	if v := <-prefetchDone; v != admitTimeout {
		t.Fatalf("queued prefetch under saturation got %v, want admitTimeout", v)
	}
	a.release()
	a.release()
}

// TestPrefetchNeverCausesLiveRejection: prefetch waiters do not consume the
// live queue bound, and a held prefetch slot never flips a live verdict to
// admitBusy that idle capacity would have served.
func TestPrefetchNeverCausesLiveRejection(t *testing.T) {
	a := newAdmission(4, 1)
	// One prefetch holds a slot; fill the prefetch queue too.
	if a.acquirePrefetch(0) != admitOK {
		t.Fatal("idle pool refused a prefetch")
	}
	for i := 0; i < prefetchQueue; i++ {
		go a.acquirePrefetch(200 * time.Millisecond)
	}
	waitFor(t, func() bool { _, p := a.queueDepths(); return p == prefetchQueue })

	// Live requests still get every non-prefetch slot without queuing.
	for i := 0; i < 3; i++ {
		if v := a.acquire(0); v != admitOK {
			t.Fatalf("live acquire %d got %v with prefetch backlog present", i, v)
		}
	}
	// The pool is now genuinely full; exactly maxQueue live waiters may
	// queue regardless of the queued prefetches.
	done := make(chan admitVerdict, 1)
	go func() { done <- a.acquire(time.Second) }()
	waitFor(t, func() bool { l, _ := a.queueDepths(); return l == 1 })
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

// TestLivePressure pins the background-parking signal: live holders and live
// waiters raise it; prefetch holders alone do not.
func TestLivePressure(t *testing.T) {
	a := newAdmission(4, 4)
	if a.livePressure() {
		t.Fatal("idle pool reports live pressure")
	}
	if a.acquirePrefetch(0) != admitOK {
		t.Fatal("idle pool refused a prefetch")
	}
	if a.livePressure() {
		t.Fatal("a held prefetch slot alone counts as live pressure")
	}
	if a.acquire(0) != admitOK {
		t.Fatal("live acquire failed")
	}
	if !a.livePressure() {
		t.Fatal("a held live slot does not raise live pressure")
	}
	a.release()
	if a.livePressure() {
		t.Fatal("pressure did not clear after the live release")
	}
	a.releasePrefetch()

	// A nil admission never reports pressure.
	var nilA *admission
	if nilA.livePressure() {
		t.Fatal("nil admission reports live pressure")
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
