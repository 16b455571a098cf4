package workload

import (
	"fmt"
	"sort"
	"sync"
)

// Status describes where a registered dataset is in its lifecycle.
type Status int

const (
	// StatusUnknown: the name is not registered.
	StatusUnknown Status = iota
	// StatusIdle: registered, generation not started yet.
	StatusIdle
	// StatusWarming: generation is in flight.
	StatusWarming
	// StatusReady: the dataset is built and cached.
	StatusReady
	// StatusFailed: generation failed; the error is cached (builders are
	// deterministic, so retrying would fail identically).
	StatusFailed
	// StatusRecovering: the build is replaying durable state (a write-ahead
	// log) rather than generating fresh data. Operationally a sub-state of
	// warming — the dataset is not servable yet — but surfaced distinctly so
	// health endpoints can tell a crash-recovering replica from a cold one
	// and the cluster router holds traffic away until replay completes.
	StatusRecovering
)

// String returns the lowercase wire form used by the gateway endpoints.
func (s Status) String() string {
	switch s {
	case StatusIdle:
		return "idle"
	case StatusWarming:
		return "warming"
	case StatusReady:
		return "ready"
	case StatusFailed:
		return "failed"
	case StatusRecovering:
		return "recovering"
	}
	return "unknown"
}

// Registry owns named datasets with lazy, single-flight construction:
// generating a dataset (rows, indexes, statistics) is seconds of work, so it
// runs at most once per name no matter how many goroutines ask, and never
// runs at all for datasets nothing touches. A Registry is safe for
// concurrent use.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*regEntry
	names   []string // registration order
}

// regEntry is one named dataset's lifecycle slot.
type regEntry struct {
	build  func() (*Dataset, error)
	status Status
	done   chan struct{} // closed when the build finishes (ready or failed)
	ds     *Dataset
	err    error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*regEntry)}
}

// Register adds a named dataset builder. The builder runs at most once, on
// first touch. Registering a duplicate or empty name is an error.
func (r *Registry) Register(name string, build func() (*Dataset, error)) error {
	if name == "" {
		return fmt.Errorf("workload: registry: empty dataset name")
	}
	if build == nil {
		return fmt.Errorf("workload: registry: nil builder for %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		return fmt.Errorf("workload: registry: dataset %q already registered", name)
	}
	r.entries[name] = &regEntry{build: build, status: StatusIdle}
	r.names = append(r.names, name)
	return nil
}

// Names returns the registered dataset names in registration order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.names...)
}

// Status reports a name's lifecycle state without triggering a build.
func (r *Registry) Status(name string) Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return StatusUnknown
	}
	return e.status
}

// Lookup returns the named dataset, building it first if needed. Exactly one
// goroutine runs the build; concurrent Lookups for the same name block until
// it finishes and share the result.
func (r *Registry) Lookup(name string) (*Dataset, error) {
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("workload: registry: unknown dataset %q", name)
	}
	switch e.status {
	case StatusReady, StatusFailed:
		r.mu.Unlock()
		return e.ds, e.err
	case StatusWarming, StatusRecovering:
		done := e.done
		r.mu.Unlock()
		<-done
		return e.ds, e.err
	}
	// Idle: this goroutine builds.
	e.status = StatusWarming
	e.done = make(chan struct{})
	r.mu.Unlock()
	r.runBuild(e)
	return e.ds, e.err
}

// Poll is the non-blocking Lookup: it kicks off an asynchronous build on
// first touch and reports the current state instead of waiting, so a caller
// on a latency-sensitive path can answer "warming" (e.g. 503 + Retry-After)
// instead of blocking. The middleware Gateway layers its own lifecycle on
// top of blocking Lookup because a dataset's serving state also includes a
// rewriter and a Server; Poll is for embedders that serve datasets directly.
func (r *Registry) Poll(name string) (*Dataset, Status, error) {
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok {
		r.mu.Unlock()
		return nil, StatusUnknown, nil
	}
	switch e.status {
	case StatusReady, StatusFailed:
		r.mu.Unlock()
		return e.ds, e.status, e.err
	case StatusWarming, StatusRecovering:
		st := e.status
		r.mu.Unlock()
		return nil, st, nil
	}
	e.status = StatusWarming
	e.done = make(chan struct{})
	r.mu.Unlock()
	go r.runBuild(e)
	return nil, StatusWarming, nil
}

// MarkRecovering flags a warming dataset as replaying durable state: a
// builder that attaches a write-ahead log calls it when startup replay
// begins, so health endpoints report "recovering" instead of generic
// warming. No-op unless the entry is currently warming; the build's terminal
// status (ready/failed) overwrites it when the builder returns.
func (r *Registry) MarkRecovering(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok && e.status == StatusWarming {
		e.status = StatusRecovering
	}
}

// runBuild executes one entry's builder and publishes the result. The entry
// is in StatusWarming (or StatusRecovering) and owned by this call.
func (r *Registry) runBuild(e *regEntry) {
	ds, err := e.build()
	r.mu.Lock()
	e.ds, e.err = ds, err
	if err != nil {
		e.status = StatusFailed
	} else {
		e.status = StatusReady
	}
	r.mu.Unlock()
	close(e.done)
}

// StandardBuilder returns a generator for one of the built-in datasets —
// "twitter", "taxi", or "tpch" — storing rows rows scaled to the paper's
// record counts (rows <= 0 keeps each dataset's default sizing).
func StandardBuilder(name string, rows int) (func() (*Dataset, error), error) {
	var cfg Config
	var gen func(Config) (*Dataset, error)
	switch name {
	case "twitter":
		cfg, gen = TwitterConfig(), Twitter
	case "taxi":
		cfg, gen = TaxiConfig(), Taxi
	case "tpch":
		cfg, gen = TPCHConfig(), TPCH
	default:
		return nil, fmt.Errorf("workload: unknown standard dataset %q (want twitter, taxi, or tpch)", name)
	}
	if rows > 0 {
		cfg.Scale = cfg.Scale * float64(cfg.Rows) / float64(rows)
		cfg.Rows = rows
	}
	return func() (*Dataset, error) { return gen(cfg) }, nil
}

// StandardNames lists the built-in dataset names StandardBuilder accepts.
func StandardNames() []string {
	names := []string{"taxi", "tpch", "twitter"}
	sort.Strings(names)
	return names
}
