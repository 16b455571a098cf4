package core

import (
	"math"
	"testing"

	"github.com/maliva/maliva/internal/engine"
)

// stubQTE is a deterministic estimator for environment tests: estimates come
// from a fixed table (falling back to the true time), and each uncached
// selectivity costs UnitMs.
type stubQTE struct {
	UnitMs float64
	BaseMs float64
	Est    map[int]float64 // option → estimate override
}

func (s *stubQTE) Name() string { return "stub" }

func (s *stubQTE) InitialCost(ctx *QueryContext, i int) float64 {
	return s.BaseMs + s.UnitMs*float64(len(ctx.NeedSels[i]))
}

func (s *stubQTE) CostNow(ctx *QueryContext, i int, cache *SelCache) float64 {
	return s.BaseMs + s.UnitMs*float64(cache.Missing(ctx.NeedSels[i]))
}

func (s *stubQTE) Estimate(ctx *QueryContext, i int, cache *SelCache) (float64, float64) {
	cost := s.CostNow(ctx, i, cache)
	for _, p := range ctx.NeedSels[i] {
		cache.Add(p)
	}
	if est, ok := s.Est[i]; ok {
		return est, cost
	}
	return ctx.TrueMs[i], cost
}

// synthContext builds a context with n exact options; option i needs the
// selectivities listed in needSels[i].
func synthContext(times []float64, needSels [][]int) *QueryContext {
	n := len(times)
	ctx := &QueryContext{
		Query:          &engine.Query{Table: "synthetic", Preds: make([]engine.Predicate, 4)},
		TrueMs:         times,
		Quality:        make([]float64, n),
		NeedSels:       needSels,
		BaselineOption: -1,
		BaselineMs:     times[0],
		Fingerprint:    12345,
		Scale:          1,
	}
	for i := 0; i < n; i++ {
		ctx.Options = append(ctx.Options, Option{Mask: uint32(i), HasHint: true})
		ctx.Quality[i] = 1
		ctx.PlanEst = append(ctx.PlanEst, engine.PlanEstimate{EstMs: times[i]})
	}
	return ctx
}

func TestEnvViableTermination(t *testing.T) {
	ctx := synthContext(
		[]float64{900, 200, 800},
		[][]int{{0}, {1}, {0, 1}},
	)
	qte := &stubQTE{UnitMs: 50, BaseMs: 10}
	env := NewEnv(EnvConfig{Budget: 500, QTE: qte, Beta: 1}, ctx)

	// Explore option 1 (est 200, cost 60): 60 + 200 ≤ 500 → terminal.
	r, done := env.Step(1)
	if !done {
		t.Fatal("expected termination on viable estimate")
	}
	if env.Decided() != 1 {
		t.Errorf("Decided = %d", env.Decided())
	}
	wantReward := (500.0 - 60 - 200) / 500
	if math.Abs(r-wantReward) > 1e-9 {
		t.Errorf("reward = %v, want %v (Eq. 1)", r, wantReward)
	}
	out := env.Outcome()
	if !out.Viable || out.PlanMs != 60 || out.ExecMs != 200 || out.TotalMs != 260 || out.Explored != 1 {
		t.Errorf("outcome = %+v", out)
	}
}

func TestEnvCostSharingAcrossOptions(t *testing.T) {
	ctx := synthContext(
		[]float64{900, 900, 900},
		[][]int{{0}, {0, 1}, {1}},
	)
	qte := &stubQTE{UnitMs: 100, BaseMs: 0}
	env := NewEnv(EnvConfig{Budget: 10000, QTE: qte, Beta: 1}, ctx)

	s := env.State()
	// Initial costs: 100, 200, 100 normalized by τ.
	if math.Abs(s[1]-100.0/10000) > 1e-12 || math.Abs(s[2]-200.0/10000) > 1e-12 {
		t.Fatalf("initial state costs wrong: %v", s[1:4])
	}
	// Exploring option 0 caches selectivity 0 → option 1's cost drops to 100.
	env.Step(0)
	s = env.State()
	if got := s[2] * 10000; got != 100 {
		t.Errorf("option 1 cost after sharing = %v, want 100 (Fig. 7 update)", got)
	}
	if got := s[3] * 10000; got != 100 {
		t.Errorf("option 2 cost should be unchanged at 100, got %v", got)
	}
	// Elapsed is recorded.
	if got := s[0] * 10000; got != 100 {
		t.Errorf("elapsed = %v, want 100", got)
	}
	// Estimated time of option 0 appears in the T section.
	if got := s[1+3+0] * 10000; got != 900 {
		t.Errorf("T₀ = %v, want 900", got)
	}
}

func TestEnvExhaustionPicksBestEstimate(t *testing.T) {
	ctx := synthContext(
		[]float64{900, 700, 800},
		[][]int{{0}, {1}, {2}},
	)
	qte := &stubQTE{UnitMs: 10, BaseMs: 0}
	env := NewEnv(EnvConfig{Budget: 500, QTE: qte, Beta: 1}, ctx)
	var done bool
	var r float64
	for _, a := range []int{0, 2, 1} {
		r, done = env.Step(a)
		if done && a != 1 {
			t.Fatalf("terminated early at option %d", a)
		}
	}
	if !done {
		t.Fatal("expected termination on exhaustion")
	}
	// All estimates exceed the remaining budget; the best estimated (700,
	// option 1) is chosen and the reward is negative (penalty).
	if env.Decided() != 1 {
		t.Errorf("Decided = %d, want 1", env.Decided())
	}
	if r >= 0 {
		t.Errorf("reward = %v, want penalty", r)
	}
	out := env.Outcome()
	if out.Viable || out.Explored != 3 {
		t.Errorf("outcome = %+v", out)
	}
}

func TestEnvOutOfTimeTermination(t *testing.T) {
	ctx := synthContext(
		[]float64{900, 950, 980},
		[][]int{{0, 1, 2}, {0, 1, 3}, {1, 2, 3}},
	)
	qte := &stubQTE{UnitMs: 300, BaseMs: 0}
	env := NewEnv(EnvConfig{Budget: 500, QTE: qte, Beta: 1}, ctx)
	_, done := env.Step(0) // costs 900 > 500 → out of time immediately
	if !done {
		t.Fatal("expected out-of-time termination")
	}
	if env.Decided() != 0 {
		t.Errorf("Decided = %d (only explored option)", env.Decided())
	}
}

func TestEnvQualityAwareReward(t *testing.T) {
	ctx := synthContext([]float64{100}, [][]int{{0}})
	ctx.Quality[0] = 0.5
	qte := &stubQTE{UnitMs: 0, BaseMs: 50}
	beta := 0.6
	env := NewEnv(EnvConfig{Budget: 500, QTE: qte, Beta: beta}, ctx)
	r, done := env.Step(0)
	if !done {
		t.Fatal("expected termination")
	}
	eff := (500.0 - 50 - 100) / 500
	want := beta*eff + (1-beta)*0.5
	if math.Abs(r-want) > 1e-9 {
		t.Errorf("Eq. 2 reward = %v, want %v", r, want)
	}
}

func TestEnvStartElapsed(t *testing.T) {
	ctx := synthContext([]float64{100, 100}, [][]int{{0}, {1}})
	qte := &stubQTE{UnitMs: 10, BaseMs: 0}
	env := NewEnv(EnvConfig{Budget: 500, QTE: qte, Beta: 1, StartElapsed: 450}, ctx)
	if env.Elapsed() != 450 {
		t.Fatalf("Elapsed = %v", env.Elapsed())
	}
	_, done := env.Step(0) // 450+10 elapsed, est 100 → 560 > 500, elapsed 460 < 500, 1 remains
	if done {
		t.Fatal("should not terminate: time remains and options remain")
	}
	_, done = env.Step(1)
	if !done {
		t.Fatal("exhaustion should terminate")
	}
}

func TestEnvStepPanics(t *testing.T) {
	ctx := synthContext([]float64{100}, [][]int{{0}})
	env := NewEnv(EnvConfig{Budget: 500, QTE: &stubQTE{}, Beta: 1}, ctx)
	env.Step(0)
	for _, f := range []func(){
		func() { env.Step(0) }, // finished episode
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSelCache(t *testing.T) {
	c := NewSelCache()
	if c.Missing([]int{0, 1, 2}) != 3 || c.Len() != 0 {
		t.Fatal("fresh cache wrong")
	}
	c.Add(1)
	if !c.Has(1) || c.Has(0) || c.Missing([]int{0, 1, 2}) != 2 || c.Len() != 1 {
		t.Fatal("cache after Add wrong")
	}
	c.Add(1)
	if c.Len() != 1 {
		t.Fatal("Add not idempotent")
	}
}

func TestStateDim(t *testing.T) {
	if StateDim(8) != 17 || StateDim(21) != 43 {
		t.Errorf("StateDim wrong: %d %d", StateDim(8), StateDim(21))
	}
}
