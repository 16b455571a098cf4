package middleware

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/workload"
)

// TestAdmissionVerdicts covers the pool state machine directly.
func TestAdmissionVerdicts(t *testing.T) {
	// Nil pool admits everything.
	var nilPool *admission
	if got := nilPool.acquire(0); got != admitOK {
		t.Fatalf("nil pool: %v", got)
	}
	nilPool.release()

	// Capacity 1, queue 0: second concurrent request is shed immediately.
	a := newAdmission(1, 0)
	if got := a.acquire(time.Second); got != admitOK {
		t.Fatalf("first acquire: %v", got)
	}
	if got := a.acquire(time.Second); got != admitBusy {
		t.Fatalf("queue-full acquire: %v, want busy", got)
	}
	a.release()
	if got := a.acquire(time.Second); got != admitOK {
		t.Fatalf("post-release acquire: %v", got)
	}
	a.release()

	// Capacity 1, queue 1: a queued request times out if the slot never
	// frees, and is admitted when it does.
	a = newAdmission(1, 1)
	if got := a.acquire(time.Second); got != admitOK {
		t.Fatal("setup acquire failed")
	}
	if got := a.acquire(10 * time.Millisecond); got != admitTimeout {
		t.Fatalf("deadline acquire: %v, want timeout", got)
	}
	done := make(chan admitVerdict, 1)
	go func() { done <- a.acquire(2 * time.Second) }()
	time.Sleep(10 * time.Millisecond)
	a.release()
	if got := <-done; got != admitOK {
		t.Fatalf("queued acquire after release: %v, want ok", got)
	}
	a.release()

	// Queue beyond maxQueue sheds.
	a = newAdmission(1, 1)
	a.acquire(time.Second)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); a.acquire(300 * time.Millisecond) }() // occupies the queue slot
	time.Sleep(20 * time.Millisecond)
	if got := a.acquire(time.Second); got != admitBusy {
		t.Fatalf("overflow acquire: %v, want busy", got)
	}
	a.release()
	wg.Wait()
}

// blockingRewriter parks the first Rewrite call until released, so tests
// can hold a worker slot occupied for a controlled window.
type blockingRewriter struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (r *blockingRewriter) Name() string { return "blocking" }

func (r *blockingRewriter) Rewrite(ctx *core.QueryContext, budget float64) core.Outcome {
	r.once.Do(func() {
		close(r.entered)
		<-r.release
	})
	return core.OracleRewriter{}.Rewrite(ctx, budget)
}

// TestHTTPAdmissionControl: with one worker slot and no queue, a second
// in-flight request gets 429 with Retry-After; with a queue, it gets 503
// once its budget-derived deadline expires. The held request still
// completes with 200.
func TestHTTPAdmissionControl(t *testing.T) {
	ds := testDataset(t)
	body, _ := json.Marshal(map[string]any{
		"keyword": "word0005",
		"min_lon": workload.USExtent.MinLon, "min_lat": workload.USExtent.MinLat,
		"max_lon": workload.USExtent.MaxLon, "max_lat": workload.USExtent.MaxLat,
		"kind": "heatmap", "budget_ms": 50,
	})

	run := func(t *testing.T, maxQueue, wantStatus int) {
		rw := &blockingRewriter{entered: make(chan struct{}), release: make(chan struct{})}
		s, err := NewServerWithConfig(ds, rw, core.HintOnlySpec(), ServerConfig{
			DefaultBudgetMs: 500, MaxConcurrent: 1, MaxQueue: maxQueue,
			QueueTimeout: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()

		firstDone := make(chan int, 1)
		go func() {
			resp, err := http.Post(srv.URL+"/viz", "application/json", bytes.NewReader(body))
			if err != nil {
				firstDone <- -1
				return
			}
			resp.Body.Close()
			firstDone <- resp.StatusCode
		}()
		<-rw.entered // first request now holds the only slot

		resp, err := http.Post(srv.URL+"/viz", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("second request = %d, want %d", resp.StatusCode, wantStatus)
		}
		if got := resp.Header.Get("Retry-After"); got == "" {
			t.Error("rejection carries no Retry-After header")
		}

		close(rw.release)
		if got := <-firstDone; got != http.StatusOK {
			t.Errorf("held request = %d, want 200", got)
		}

		snap := s.Metrics().Snapshot()
		if wantStatus == http.StatusTooManyRequests && snap.RejectedBusy != 1 {
			t.Errorf("RejectedBusy = %d, want 1", snap.RejectedBusy)
		}
		if wantStatus == http.StatusServiceUnavailable && snap.RejectedWait != 1 {
			t.Errorf("RejectedWait = %d, want 1", snap.RejectedWait)
		}
	}

	t.Run("queue full -> 429", func(t *testing.T) { run(t, -1, http.StatusTooManyRequests) })
	t.Run("deadline in queue -> 503", func(t *testing.T) { run(t, 4, http.StatusServiceUnavailable) })
}

// TestHugeBudgetWaitsFullQueueTimeout: a budget too large to convert to a
// time.Duration waits QueueTimeout for a slot like any budget above it, not
// the 10 ms floor a wrapped-negative wait would give it.
func TestHugeBudgetWaitsFullQueueTimeout(t *testing.T) {
	ds := testDataset(t)
	rw := &blockingRewriter{entered: make(chan struct{}), release: make(chan struct{})}
	s, err := NewServerWithConfig(ds, rw, core.HintOnlySpec(), ServerConfig{
		DefaultBudgetMs: 500, MaxConcurrent: 1, QueueTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	post := func(budget float64) int {
		body, _ := json.Marshal(map[string]any{
			"keyword": "word0005",
			"min_lon": workload.USExtent.MinLon, "min_lat": workload.USExtent.MinLat,
			"max_lon": workload.USExtent.MaxLon, "max_lat": workload.USExtent.MaxLat,
			"kind": "heatmap", "budget_ms": budget,
		})
		resp, err := http.Post(srv.URL+"/viz", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return -1
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	firstDone := make(chan int, 1)
	go func() { firstDone <- post(500) }()
	<-rw.entered // the first request now holds the only slot

	time.AfterFunc(100*time.Millisecond, func() { close(rw.release) })
	if got := post(1e13); got != http.StatusOK {
		t.Errorf("huge-budget request queued behind a 100 ms hold = %d, want 200", got)
	}
	if got := <-firstDone; got != http.StatusOK {
		t.Errorf("held request = %d, want 200", got)
	}
}
