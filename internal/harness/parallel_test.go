package harness

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/qte"
	"github.com/maliva/maliva/internal/workload"
)

// parallelTestLabConfig returns a small-but-real lab configuration shared by
// the determinism tests below.
func parallelTestLabConfig() (workload.Config, LabConfig) {
	dcfg := workload.TwitterConfig()
	dcfg.Rows = 6_000
	dcfg.Scale = 100e6 / float64(dcfg.Rows)
	lcfg := LabConfig{
		NumQueries: 24,
		QuerySpec:  workload.QuerySpec{NumPreds: 3, Seed: 5},
		Space:      core.HintOnlySpec(),
		Budget:     500,
		Seed:       9,
	}
	return dcfg, lcfg
}

// atGOMAXPROCS runs fn with GOMAXPROCS — and so the width of every
// RunIndexed pool — set to procs, restoring it afterwards.
func atGOMAXPROCS(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// contextsEqual compares every observable ground-truth field of two context
// slices.
func contextsEqual(t *testing.T, tag string, a, b []*core.QueryContext) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d contexts vs %d", tag, len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Fingerprint != y.Fingerprint {
			t.Errorf("%s[%d]: fingerprint %x vs %x", tag, i, x.Fingerprint, y.Fingerprint)
		}
		if !reflect.DeepEqual(x.TrueMs, y.TrueMs) {
			t.Errorf("%s[%d]: TrueMs diverges", tag, i)
		}
		if !reflect.DeepEqual(x.Quality, y.Quality) {
			t.Errorf("%s[%d]: Quality diverges", tag, i)
		}
		if !reflect.DeepEqual(x.SelTrue, y.SelTrue) {
			t.Errorf("%s[%d]: SelTrue diverges", tag, i)
		}
		if !reflect.DeepEqual(x.SelSampled, y.SelSampled) {
			t.Errorf("%s[%d]: SelSampled diverges", tag, i)
		}
		if !reflect.DeepEqual(x.PlanEst, y.PlanEst) {
			t.Errorf("%s[%d]: PlanEst diverges", tag, i)
		}
		if x.BaselineMs != y.BaselineMs || x.BaselineOption != y.BaselineOption {
			t.Errorf("%s[%d]: baseline diverges", tag, i)
		}
	}
}

// TestBuildLabParallelDeterministic: the ground-truth pipeline on three
// processors is bit-identical to the one on one processor (the inline path)
// across every split. Run with -race to exercise the concurrency claims of
// the engine and pipeline.
func TestBuildLabParallelDeterministic(t *testing.T) {
	dcfg, lcfg := parallelTestLabConfig()
	ds, err := workload.Twitter(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	var serial *Lab
	atGOMAXPROCS(1, func() { serial, err = BuildLab(ds, lcfg) })
	if err != nil {
		t.Fatal(err)
	}

	// A fresh dataset for the parallel build keeps the two pipelines fully
	// independent (no shared stats cache warming order).
	ds2, err := workload.Twitter(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	var par *Lab
	atGOMAXPROCS(3, func() { par, err = BuildLab(ds2, lcfg) })
	if err != nil {
		t.Fatal(err)
	}

	contextsEqual(t, "train", serial.Train, par.Train)
	contextsEqual(t, "val", serial.Val, par.Val)
	contextsEqual(t, "eval", serial.Eval, par.Eval)
}

// TestTrainAgentParallelDeterministic: per-seed training on three
// processors selects the same agent (same validation score, same policy
// decisions) as on one.
func TestTrainAgentParallelDeterministic(t *testing.T) {
	dcfg, lcfg := parallelTestLabConfig()
	ds, err := workload.Twitter(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := BuildLab(ds, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	acfg := core.DefaultAgentConfig()
	acfg.MaxEpochs = 4
	acfg.MinEpochs = 2
	est := qte.NewAccurateQTE()

	tcfg := TrainAgentConfig{Agent: acfg, QTE: est, Seeds: []int64{7, 17, 23}}
	var serialAgent, parAgent *core.Agent
	var serialScore, parScore float64
	atGOMAXPROCS(1, func() { serialAgent, serialScore = lab.TrainAgent(tcfg) })
	atGOMAXPROCS(3, func() { parAgent, parScore = lab.TrainAgent(tcfg) })
	if serialScore != parScore {
		t.Fatalf("validation score %v (parallel) vs %v (serial)", parScore, serialScore)
	}
	// The chosen agents must make identical decisions on every eval query.
	for i, ctx := range lab.Eval {
		envCfg := core.EnvConfig{Budget: lab.Budget, QTE: est, Beta: 1}
		a := serialAgent.Rewrite(core.NewEnv(envCfg, ctx))
		b := parAgent.Rewrite(core.NewEnv(envCfg, ctx))
		if a != b {
			t.Fatalf("eval query %d: outcome %+v (parallel) vs %+v (serial)", i, b, a)
		}
	}
}
