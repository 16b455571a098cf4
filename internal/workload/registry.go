package workload

import (
	"fmt"
	"sort"
)

// Registry is the serving layer's directory of named dataset builders, in
// registration order. It builds nothing itself: middleware.NewGateway runs
// every builder before it returns. Fill a Registry before handing it to a
// gateway; Register is not safe for concurrent use.
type Registry struct {
	names  []string // registration order
	builds map[string]func() (*Dataset, error)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{builds: make(map[string]func() (*Dataset, error))}
}

// Register adds a named dataset builder. Registering a duplicate or empty
// name, or a nil builder, is an error.
func (r *Registry) Register(name string, build func() (*Dataset, error)) error {
	if name == "" {
		return fmt.Errorf("workload: registry: empty dataset name")
	}
	if build == nil {
		return fmt.Errorf("workload: registry: nil builder for %q", name)
	}
	if _, ok := r.builds[name]; ok {
		return fmt.Errorf("workload: registry: dataset %q already registered", name)
	}
	r.builds[name] = build
	r.names = append(r.names, name)
	return nil
}

// Names returns the registered dataset names in registration order.
func (r *Registry) Names() []string { return append([]string(nil), r.names...) }

// Builder returns the builder registered under name.
func (r *Registry) Builder(name string) (func() (*Dataset, error), bool) {
	build, ok := r.builds[name]
	return build, ok
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
