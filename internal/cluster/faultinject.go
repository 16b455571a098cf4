package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/maliva/maliva/internal/middleware"
)

// FaultConfig describes an injected failure distribution. Rates are
// independent probabilities folded into one draw per operation (a single
// operation suffers at most one fault; drop is checked first, then error,
// then delay). The zero value injects nothing.
type FaultConfig struct {
	// Seed makes the fault sequence deterministic: two runs with the same
	// seed and the same operation order inject identical faults. 0 picks
	// seed 1 (still deterministic — fault injection exists to reproduce).
	Seed int64
	// DropRate is the probability an operation hangs until DropDelay and
	// then fails with a timeout — the shape of a dead peer.
	DropRate float64
	// ErrRate is the probability an operation fails immediately.
	ErrRate float64
	// DelayRate is the probability an operation is delayed by Delay
	// before proceeding normally.
	DelayRate float64
	// Delay is the injected latency for delayed operations. Default 20ms.
	Delay time.Duration
	// DropDelay is how long a dropped operation hangs before its timeout
	// fires. Default DefaultPeerTimeout.
	DropDelay time.Duration
}

// faultKind is one draw's outcome.
type faultKind int

const (
	faultNone faultKind = iota
	faultDrop
	faultErr
	faultDelay
)

// Faults is a seeded fault injector for the peer transport (see
// FaultyPeer). Safe for concurrent use; Counts reports what it injected.
type Faults struct {
	cfg FaultConfig

	mu  sync.Mutex
	rng *rand.Rand

	drops  atomic.Int64
	errs   atomic.Int64
	delays atomic.Int64
}

// NewFaults builds an injector from a config (see FaultConfig.Seed).
func NewFaults(cfg FaultConfig) *Faults {
	if cfg.Delay <= 0 {
		cfg.Delay = 20 * time.Millisecond
	}
	if cfg.DropDelay <= 0 {
		cfg.DropDelay = DefaultPeerTimeout
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Faults{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Counts returns how many faults of each kind have been injected.
func (f *Faults) Counts() (drops, errs, delays int64) {
	return f.drops.Load(), f.errs.Load(), f.delays.Load()
}

// decide makes one deterministic draw.
func (f *Faults) decide() faultKind {
	f.mu.Lock()
	u := f.rng.Float64()
	f.mu.Unlock()
	c := f.cfg
	switch {
	case u < c.DropRate:
		f.drops.Add(1)
		return faultDrop
	case u < c.DropRate+c.ErrRate:
		f.errs.Add(1)
		return faultErr
	case u < c.DropRate+c.ErrRate+c.DelayRate:
		f.delays.Add(1)
		return faultDelay
	}
	return faultNone
}

// sleep waits for d or the context, whichever ends first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// injectedTimeout is the error a dropped operation resolves to. It
// satisfies net.Error's Timeout so the peer cache classifies it exactly
// like a real dead-peer timeout.
type injectedTimeout struct{}

func (injectedTimeout) Error() string   { return "cluster: injected fault: operation dropped" }
func (injectedTimeout) Timeout() bool   { return true }
func (injectedTimeout) Temporary() bool { return true }

// apply executes one draw against the calling operation: nil to proceed
// (possibly after an injected delay), or the injected error.
func (f *Faults) apply(ctx context.Context) error {
	switch f.decide() {
	case faultDrop:
		sleepCtx(ctx, f.cfg.DropDelay)
		return injectedTimeout{}
	case faultErr:
		return fmt.Errorf("cluster: injected fault: operation failed")
	case faultDelay:
		sleepCtx(ctx, f.cfg.Delay)
	}
	return nil
}

// FaultyPeer wraps a PeerClient with fault injection on both operations —
// the harness that proves the peer path degrades to local compute (and the
// hedge path races past a slow peer) without ever corrupting a response.
type FaultyPeer struct {
	Inner  PeerClient
	Faults *Faults
}

// FetchResult implements PeerClient.
func (p FaultyPeer) FetchResult(ctx context.Context, dataset string, key middleware.ResultKey) (*middleware.Response, bool, error) {
	if err := p.Faults.apply(ctx); err != nil {
		return nil, false, err
	}
	return p.Inner.FetchResult(ctx, dataset, key)
}

// FillResult implements PeerClient.
func (p FaultyPeer) FillResult(dataset string, key middleware.ResultKey, resp *middleware.Response) error {
	if err := p.Faults.apply(context.Background()); err != nil {
		return err
	}
	return p.Inner.FillResult(dataset, key, resp)
}
