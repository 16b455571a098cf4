// Package harness wires the substrates together into the paper's
// experimental pipeline: generate workloads, build per-query ground-truth
// contexts, train QTEs and MDP agents with hold-out validation, evaluate all
// rewriters bucketed by query difficulty, and render each of §7's tables and
// figures as a text report.
package harness

import (
	"fmt"
	"io"
	"sort"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/qte"
	"github.com/maliva/maliva/internal/workload"
)

// Lab is one experimental setup: a dataset, an option space, a time budget,
// and the train/validation/evaluation context sets.
type Lab struct {
	DS     *workload.Dataset
	Spec   core.SpaceSpec
	Budget float64

	Train []*core.QueryContext
	Val   []*core.QueryContext
	Eval  []*core.QueryContext
}

// LabConfig sizes a lab.
type LabConfig struct {
	NumQueries int
	QuerySpec  workload.QuerySpec
	Space      core.SpaceSpec
	Budget     float64
	Seed       int64
	// Progress, when non-nil, receives coarse progress lines.
	Progress io.Writer
}

// BuildLab generates queries, splits them per the paper's protocol, and
// builds ground-truth contexts for every split. Context construction — the
// pipeline's dominant cost — fans out across queries over GOMAXPROCS
// workers. Every context derives its randomness from the per-query
// fingerprint and lands in its own slot, so the built lab is bit-identical
// at any GOMAXPROCS.
func BuildLab(ds *workload.Dataset, cfg LabConfig) (*Lab, error) {
	queries := workload.GenerateQueries(ds, cfg.NumQueries, cfg.QuerySpec)
	trainQ, valQ, evalQ := workload.Split(queries, cfg.Seed)
	lab := &Lab{DS: ds, Spec: cfg.Space, Budget: cfg.Budget}
	ctxCfg := core.DefaultContextConfig(cfg.Space)
	ctxCfg.Seed = cfg.Seed
	build := func(qs []*engine.Query, tag string) ([]*core.QueryContext, error) {
		out := make([]*core.QueryContext, len(qs))
		err := core.RunIndexed(len(qs), func(i int) error {
			ctx, err := core.BuildContext(ds.DB, qs[i], ctxCfg)
			if err != nil {
				return fmt.Errorf("harness: %s query %d: %w", tag, i, err)
			}
			out[i] = ctx
			return nil
		})
		if err != nil {
			return nil, err
		}
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "  built %d %s contexts\n", len(out), tag)
		}
		return out, nil
	}
	var err error
	if lab.Train, err = build(trainQ, "train"); err != nil {
		return nil, err
	}
	if lab.Val, err = build(valQ, "validation"); err != nil {
		return nil, err
	}
	if lab.Eval, err = build(evalQ, "evaluation"); err != nil {
		return nil, err
	}
	return lab, nil
}

// NewSamplingQTE trains the approximate QTE's cost model on the lab's
// training contexts.
func (l *Lab) NewSamplingQTE() (*qte.SamplingQTE, error) {
	s := qte.NewSamplingQTE()
	if err := s.Train(l.Train, 1.0); err != nil {
		return nil, err
	}
	return s, nil
}

// TrainAgentConfig bundles agent-training options.
type TrainAgentConfig struct {
	Agent core.AgentConfig
	QTE   core.Estimator
	Beta  float64
	// Seeds trains one agent per seed and keeps the best on validation VQP
	// (the paper's hold-out validation, §7.1).
	Seeds []int64
	// Contexts overrides the training set (defaults to l.Train).
	Contexts []*core.QueryContext
	// ValContexts overrides the validation set (defaults to l.Val).
	ValContexts []*core.QueryContext
}

// TrainAgent trains MDP agents with hold-out validation and returns the
// best, along with its validation VQP. The per-seed runs are independent
// (contexts are read-only during training, and each seed's training is fully
// determined by its own RNG) and fan out over GOMAXPROCS workers; the winner
// is selected in seed order afterwards, so it is the same agent at any
// GOMAXPROCS.
func (l *Lab) TrainAgent(cfg TrainAgentConfig) (*core.Agent, float64) {
	if cfg.Beta <= 0 {
		cfg.Beta = 1
	}
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []int64{7, 17}
	}
	train := cfg.Contexts
	if train == nil {
		train = l.Train
	}
	val := cfg.ValContexts
	if val == nil {
		val = l.Val
	}
	if len(train) == 0 {
		panic("harness: TrainAgent with empty training set")
	}
	n := train[0].N()
	envCfg := core.EnvConfig{Budget: l.Budget, QTE: cfg.QTE, Beta: cfg.Beta}
	agents := make([]*core.Agent, len(cfg.Seeds))
	scores := make([]float64, len(cfg.Seeds))
	_ = core.RunIndexed(len(cfg.Seeds), func(i int) error {
		acfg := cfg.Agent
		acfg.Seed = cfg.Seeds[i]
		agent := core.NewAgent(acfg, n)
		agent.Train(train, envCfg)
		agents[i] = agent
		scores[i] = l.validationScore(agent, cfg.QTE, cfg.Beta, val)
		return nil
	})
	var best *core.Agent
	bestScore := -1.0
	for i := range cfg.Seeds {
		if scores[i] > bestScore {
			best, bestScore = agents[i], scores[i]
		}
	}
	return best, bestScore
}

// validationScore returns the VQP (plus a small quality tiebreak) of an
// agent on the validation set.
func (l *Lab) validationScore(agent *core.Agent, est core.Estimator, beta float64, val []*core.QueryContext) float64 {
	if len(val) == 0 {
		return 0
	}
	viable, quality := 0, 0.0
	for _, ctx := range val {
		env := core.NewEnv(core.EnvConfig{Budget: l.Budget, QTE: est, Beta: beta}, ctx)
		out := agent.Rewrite(env)
		if out.Viable {
			viable++
		}
		quality += out.Quality
	}
	return float64(viable)/float64(len(val)) + 0.001*quality/float64(len(val))
}

// Bucket groups evaluation queries by their number of viable plans.
type Bucket struct {
	Label    string
	Lo, Hi   int // inclusive range of viable-plan counts
	Contexts []*core.QueryContext
}

// Bucketize splits contexts into viable-plan buckets. Each def is an
// inclusive [lo, hi] range; hi < 0 means "lo or more".
func Bucketize(contexts []*core.QueryContext, budget float64, defs [][2]int) []*Bucket {
	buckets := make([]*Bucket, len(defs))
	for i, d := range defs {
		label := fmt.Sprint(d[0])
		switch {
		case d[1] < 0:
			label = fmt.Sprintf("≥%d", d[0])
		case d[1] != d[0]:
			label = fmt.Sprintf("%d-%d", d[0], d[1])
		}
		buckets[i] = &Bucket{Label: label, Lo: d[0], Hi: d[1]}
	}
	for _, ctx := range contexts {
		nv := ctx.NumViable(budget)
		for _, b := range buckets {
			if nv >= b.Lo && (b.Hi < 0 || nv <= b.Hi) {
				b.Contexts = append(b.Contexts, ctx)
				break
			}
		}
	}
	return buckets
}

// StandardBuckets matches the paper's Fig. 12/13 x-axis: 1, 2, 3, 4 viable
// plans (0 and ≥5 reported separately in Table 2).
func StandardBuckets() [][2]int {
	return [][2]int{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, -1}}
}

// ViablePlanHistogram counts evaluation queries per viable-plan count —
// Table 2's rows.
func ViablePlanHistogram(contexts []*core.QueryContext, budget float64) map[int]int {
	out := make(map[int]int)
	for _, ctx := range contexts {
		out[ctx.NumViable(budget)]++
	}
	return out
}

// SortedKeys returns the histogram keys in order.
func SortedKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
