package cluster

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// ReplicaState is one replica's position in the lifecycle state machine:
//
//	live ──(FailAfter probe failures, or a down sentinel)──▶ down
//	down ──(first successful probe)──▶ rejoining
//	rejoining ──(RejoinAfter consecutive successes)──▶ live
//	rejoining ──(any failure)──▶ down
//	any ──(operator drain / draining sentinel)──▶ draining
//	draining ──(probe reports healthy again)──▶ rejoining
//	any ──(recovering sentinel: replica replaying its WAL)──▶ recovering
//	recovering ──(probe reports healthy again)──▶ rejoining
//
// Only live replicas receive routed traffic. Rejoining replicas are up but
// held out of the routing set until they prove stable (hysteresis against
// flapping); the router still falls back to them when no live replica can
// serve, so a stale health view never turns into an avoidable 503.
type ReplicaState int32

const (
	// StateLive replicas serve routed traffic.
	StateLive ReplicaState = iota
	// StateDraining replicas refuse new /viz traffic but keep answering
	// peer fetches, health checks, and metrics (operator-initiated).
	StateDraining
	// StateDown replicas answer nothing; probes back off exponentially.
	StateDown
	// StateRejoining replicas are up again but not yet trusted with
	// routed traffic.
	StateRejoining
	// StateRecovering replicas are up and probeable but replaying durable
	// state (WAL recovery after a crash): traffic is held away until replay
	// completes, then the normal rejoin hysteresis applies. Unlike down, a
	// recovering replica answers probes, so there is no backoff.
	StateRecovering
)

// String returns the lifecycle name used in /healthz and metrics labels.
func (s ReplicaState) String() string {
	switch s {
	case StateLive:
		return "live"
	case StateDraining:
		return "draining"
	case StateDown:
		return "down"
	case StateRejoining:
		return "rejoining"
	case StateRecovering:
		return "recovering"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// ErrDraining is the probe result for a replica that is up but draining: it
// must leave the routing set without being treated as crashed (no backoff,
// no rejoin hysteresis once undrained... the probe keeps watching it).
var ErrDraining = errors.New("cluster: replica is draining")

// ErrRecovering is the probe result for a replica that is up but replaying
// its write-ahead log after a restart: hold traffic away (its data is
// incomplete until replay finishes) without the down state's probe backoff —
// recovery completes on its own and the next successful probe starts the
// rejoin hysteresis.
var ErrRecovering = errors.New("cluster: replica is recovering")

// Probe checks one replica's health: nil means live, ErrDraining means up
// but draining, anything else means down. Probes must be safe for
// concurrent use across replicas (each replica gets its own prober
// goroutine).
type Probe func(replica int) error

// HealthConfig tunes the health pool. The zero value picks every default.
type HealthConfig struct {
	// Interval between probes of a non-down replica. Default 500ms.
	Interval time.Duration
	// FailAfter is how many consecutive probe failures demote a live
	// replica to down. Passive failures (down sentinels seen by the
	// router) skip the count — the replica said so itself. Default 2.
	FailAfter int
	// RejoinAfter is how many consecutive probe successes a rejoining
	// replica needs before it is routed to again. Default 2.
	RejoinAfter int
	// BackoffMax caps the exponential probe backoff while a replica is
	// down. Default 8×Interval.
	BackoffMax time.Duration
}

// normalized resolves defaults.
func (c HealthConfig) normalized() HealthConfig {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.RejoinAfter <= 0 {
		c.RejoinAfter = 2
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 8 * c.Interval
	}
	return c
}

// replicaHealth is one replica's mutable health record.
type replicaHealth struct {
	state   ReplicaState
	fails   int    // consecutive probe failures (drives demotion and backoff)
	succs   int    // consecutive successes while rejoining
	lastErr string // last probe error, for /healthz
}

// HealthPool tracks every replica's lifecycle state from two signals: an
// active prober per replica (Start) and passive reports from the routing
// tier (ReportFailure/ReportDraining/ReportSuccess — a replica's own
// refusal sentinel is authoritative, so passive demotion is immediate).
// Membership changes never rebuild the hash ring; the router just excludes
// non-live replicas when walking a key's ring sequence, which reassigns
// only the excluded replica's ~1/N of the key space (see Ring.OwnerAmong).
type HealthPool struct {
	cfg   HealthConfig
	probe Probe

	mu   sync.Mutex
	reps []replicaHealth

	stop     chan struct{}
	stopOnce sync.Once
	started  bool
}

// NewHealthPool builds a pool over replicas 0..n-1, all initially live.
// Call Start to launch the probers; an unstarted pool still tracks passive
// reports (useful for tests and probe-less embeddings).
func NewHealthPool(n int, probe Probe, cfg HealthConfig) *HealthPool {
	return &HealthPool{
		cfg:   cfg.normalized(),
		probe: probe,
		reps:  make([]replicaHealth, n),
		stop:  make(chan struct{}),
	}
}

// Start launches one prober goroutine per replica. Idempotent.
func (p *HealthPool) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started || p.probe == nil {
		return
	}
	p.started = true
	for i := range p.reps {
		go p.prober(i)
	}
}

// Stop terminates the probers. The pool keeps answering state queries.
func (p *HealthPool) Stop() { p.stopOnce.Do(func() { close(p.stop) }) }

// prober drives one replica's active checks, backing off while it is down.
func (p *HealthPool) prober(i int) {
	t := time.NewTimer(p.probeDelay(i))
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		p.Pulse(i)
		t.Reset(p.probeDelay(i))
	}
}

// Pulse runs one probe of replica i immediately and feeds the result into
// the state machine (the probers call it on their timers; tests call it
// directly for deterministic transitions).
func (p *HealthPool) Pulse(i int) {
	err := p.probe(i)
	switch {
	case err == nil:
		p.note(i, probeOK, "")
	case errors.Is(err, ErrDraining):
		p.note(i, probeDraining, "")
	case errors.Is(err, ErrRecovering):
		p.note(i, probeRecovering, "")
	default:
		p.note(i, probeFail, err.Error())
	}
}

// probeDelay returns how long to wait before the next probe of replica i:
// the configured interval, doubling per consecutive failure while down.
func (p *HealthPool) probeDelay(i int) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.reps[i]
	if h.state != StateDown {
		return p.cfg.Interval
	}
	shift := h.fails
	if shift > 6 {
		shift = 6
	}
	d := p.cfg.Interval << uint(shift)
	if d > p.cfg.BackoffMax {
		d = p.cfg.BackoffMax
	}
	return d
}

// probeResult classifies one observation of a replica.
type probeResult int

const (
	probeOK probeResult = iota
	probeDraining
	probeRecovering
	probeFail
)

// note advances one replica's state machine on one observation.
func (p *HealthPool) note(i int, res probeResult, errText string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := &p.reps[i]
	switch res {
	case probeOK:
		h.fails, h.lastErr = 0, ""
		switch h.state {
		case StateDown, StateDraining, StateRecovering:
			h.succs = 1
			h.state = StateRejoining
		case StateRejoining:
			h.succs++
		default:
			return
		}
		if h.succs >= p.cfg.RejoinAfter {
			h.state, h.succs = StateLive, 0
		}
	case probeDraining:
		h.state = StateDraining
		h.fails, h.succs = 0, 0
	case probeRecovering:
		h.state = StateRecovering
		h.fails, h.succs = 0, 0
	case probeFail:
		h.lastErr = errText
		h.succs = 0
		h.fails++
		switch h.state {
		case StateLive:
			if h.fails >= p.cfg.FailAfter {
				h.state = StateDown
			}
		case StateRejoining, StateDraining, StateRecovering:
			// A rejoining replica that fails again, or a draining or
			// recovering one that stops answering entirely, is down.
			h.state = StateDown
		}
	}
}

// ReportFailure is the passive path: the routing tier saw replica i refuse
// with a down sentinel (or observed a hard transport failure). The replica
// declared itself unavailable, so demotion is immediate — no FailAfter
// hysteresis, the next probes handle recovery.
func (p *HealthPool) ReportFailure(i int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := &p.reps[i]
	h.state, h.succs = StateDown, 0
	if h.fails == 0 {
		h.fails = 1
	}
}

// ReportDraining records a draining sentinel seen by the routing tier.
func (p *HealthPool) ReportDraining(i int) { p.note(i, probeDraining, "") }

// ReportRecovering records a recovering sentinel seen by the routing tier: a
// replica that refused traffic because it is still replaying its WAL.
func (p *HealthPool) ReportRecovering(i int) { p.note(i, probeRecovering, "") }

// ReportSuccess feeds a successful routed request into the state machine:
// a non-live replica that just served real traffic makes progress toward
// live without waiting for its next probe tick.
func (p *HealthPool) ReportSuccess(i int) { p.note(i, probeOK, "") }

// State returns replica i's current lifecycle state.
func (p *HealthPool) State(i int) ReplicaState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reps[i].state
}

// Routable reports whether replica i should receive routed traffic.
func (p *HealthPool) Routable(i int) bool { return p.State(i) == StateLive }

// RetryAfterSeconds is the Retry-After value for an all-replicas-down 503:
// one full demotion cycle (FailAfter probes), rounded up to a whole second
// — by then the pool has either re-admitted a replica or confirmed the
// outage.
func (p *HealthPool) RetryAfterSeconds() int {
	d := p.cfg.Interval * time.Duration(p.cfg.FailAfter)
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// ReplicaHealthSnapshot is one replica's row in /healthz.
type ReplicaHealthSnapshot struct {
	Replica   int    `json:"replica"`
	State     string `json:"state"`
	Fails     int    `json:"consecutive_fails,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

// SnapshotAll captures every replica's health row.
func (p *HealthPool) SnapshotAll() []ReplicaHealthSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ReplicaHealthSnapshot, len(p.reps))
	for i, h := range p.reps {
		out[i] = ReplicaHealthSnapshot{
			Replica:   i,
			State:     h.state.String(),
			Fails:     h.fails,
			LastError: h.lastErr,
		}
	}
	return out
}

// NodeProbe probes in-process nodes by their own lifecycle state (the
// probe of a cluster built by New), equivalent to what an HTTP health check
// would observe without the socket.
func NodeProbe(nodes []*Node) Probe {
	return func(i int) error {
		switch nodes[i].State() {
		case StateDown:
			return fmt.Errorf("cluster: replica %d is down", i)
		case StateDraining:
			return ErrDraining
		}
		if nodes[i].Recovering() {
			return ErrRecovering
		}
		return nil
	}
}

// NewHTTPProbe probes replicas over HTTP (GET <base>/healthz) for
// one-process-per-replica deployments. A draining replica answers health
// checks with the draining sentinel header, which maps to ErrDraining.
// timeout <= 0 picks DefaultPeerTimeout.
func NewHTTPProbe(bases []string, timeout time.Duration) Probe {
	if timeout <= 0 {
		timeout = DefaultPeerTimeout
	}
	client := &http.Client{Timeout: timeout}
	return func(i int) error {
		resp, err := client.Get(bases[i] + "/healthz")
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		switch resp.Header.Get(ReplicaUnavailableHeader) {
		case "draining":
			return ErrDraining
		case "recovering":
			return ErrRecovering
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("cluster: replica %d healthz: %s", i, resp.Status)
		}
		return nil
	}
}
