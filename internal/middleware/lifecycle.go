package middleware

import (
	"net/http"
)

// Server lifecycle states. A server starts serving, moves one-way to
// draining (no new work; in-flight requests finish), and ends closed (the
// ingest batcher flushed and shut). The health endpoint reports the state so
// load balancers and the cluster router fail over before the listener goes
// away.
const (
	stateServing int32 = iota
	stateDraining
	stateClosed
)

// lifecycleStatus renders a state for /healthz.
func lifecycleStatus(state int32) string {
	switch state {
	case stateDraining:
		return "draining"
	case stateClosed:
		return "closed"
	default:
		return "ok"
	}
}

// Drain stops admitting new /viz, /ingest, and prefetch work: newcomers get
// 503 + Retry-After (a prefetch is simply not started) and /healthz flips to
// "draining" so health-checked routing fails over. Requests and prefetches
// already past admission run to completion. Draining is one-way; there is
// no resume.
func (s *Server) Drain() {
	s.state.CompareAndSwap(stateServing, stateDraining)
}

// Draining reports whether the server has stopped admitting new work.
func (s *Server) Draining() bool { return s.state.Load() != stateServing }

// Close drains the server, waits for admitted prefetches to finish, and
// shuts down its write path: the ingest batcher flushes buffered rows (so
// every acknowledged async row is applied — and, when a WAL is attached,
// logged) and stops its background flusher, and the server's flush hook
// leaves the dataset's DB. Safe to call more than once; later calls return
// the first close's error.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.prefetchMu.Lock()
		s.Drain()
		s.prefetchMu.Unlock()
		s.prefetches.Wait()
		s.ingestMu.Lock()
		s.closeErr = s.ingest.Close()
		s.ingestMu.Unlock()
		s.unhookFlush()
		s.state.Store(stateClosed)
	})
	return s.closeErr
}

// rejectDraining writes the draining rejection for one request and counts it.
func (s *Server) rejectDraining(w http.ResponseWriter) {
	s.metrics.drainRejected.Add(1)
	w.Header().Set("Retry-After", "1")
	http.Error(w, "server is "+lifecycleStatus(s.state.Load()), http.StatusServiceUnavailable)
}

// SetFaultHook installs a test-only fault injection point: fn runs at the
// start of each serving stage ("viz", "ingest", "prefetch", "observe") and
// may panic to exercise the recovery middleware. A nil fn removes the hook.
func (s *Server) SetFaultHook(fn func(stage string)) {
	if fn == nil {
		s.faultHook.Store(nil)
		return
	}
	s.faultHook.Store(&fn)
}

// fault fires the installed fault hook, if any.
func (s *Server) fault(stage string) {
	if f := s.faultHook.Load(); f != nil {
		(*f)(stage)
	}
}

// recoverPanics wraps one HTTP handler so a panic below it becomes a 500
// plus a maliva_panics_total{handler=...} increment instead of a dead
// process. The response write is best-effort: if the handler already sent
// headers, the connection is simply abandoned (net/http closes it), which is
// still the client's signal that something went wrong.
func recoverPanics(m *Metrics, handler string, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				m.notePanic(handler)
				m.serverErr.Add(1)
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		next(w, r)
	}
}

// guardPanics runs fn on a worker goroutine's behalf, converting a panic
// into a counted recovery. Worker goroutines (session observer, prefetch,
// cache fill) must never take the process down: their work is
// speculative or advisory, so the correct response to a panic is to drop
// that one unit of work and keep serving.
func guardPanics(m *Metrics, worker string, fn func()) {
	defer func() {
		if v := recover(); v != nil {
			m.notePanic(worker)
		}
	}()
	fn()
}
