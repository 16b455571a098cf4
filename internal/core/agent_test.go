package core

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// learnableWorkload builds contexts where one option is reliably viable and
// cheap to identify: option `good` has true time 100 ms, the others 2000 ms.
// Workloads alternate which option is good based on a detectable pattern in
// estimated times, so a trained agent should beat random exploration.
func learnableWorkload(n int) []*QueryContext {
	rng := rand.New(rand.NewSource(77))
	var out []*QueryContext
	for i := 0; i < n; i++ {
		good := i % 3 // rotate the good option among 0..2
		times := []float64{2000, 2000, 2000, 2000}
		times[good] = 100
		// Option 3 is always mediocre but never viable within 500.
		times[3] = 900
		needs := [][]int{{0}, {1}, {2}, {0, 1, 2}}
		ctx := synthContext(times, needs)
		ctx.Fingerprint = uint64(rng.Int63())
		out = append(out, ctx)
	}
	return out
}

func fastAgentConfig() AgentConfig {
	cfg := DefaultAgentConfig()
	cfg.MaxEpochs = 8
	cfg.MinEpochs = 2
	cfg.EpsDecayEpisodes = 150
	return cfg
}

func TestAgentLearnsViableOptions(t *testing.T) {
	contexts := learnableWorkload(60)
	qte := &stubQTE{UnitMs: 40, BaseMs: 5}
	envCfg := EnvConfig{Budget: 500, QTE: qte, Beta: 1}
	agent := NewAgent(fastAgentConfig(), 4)
	res := agent.Train(contexts, envCfg)
	if res.Epochs == 0 || res.Episodes == 0 {
		t.Fatalf("training did not run: %+v", res)
	}
	viable := 0
	for _, ctx := range contexts {
		env := NewEnv(envCfg, ctx)
		out := agent.Rewrite(env)
		if out.Viable {
			viable++
		}
	}
	vqp := float64(viable) / float64(len(contexts))
	// With exploration costs 45–125 ms and a 100 ms good option, a sensible
	// policy reaches near-100%; random order still often succeeds, so we
	// require a high bar.
	if vqp < 0.8 {
		t.Errorf("trained agent VQP = %.2f, want ≥ 0.8", vqp)
	}
}

func TestAgentGreedyMasksExplored(t *testing.T) {
	agent := NewAgent(fastAgentConfig(), 4)
	state := make([]float64, StateDim(4))
	explored := []bool{true, false, true, false}
	for i := 0; i < 10; i++ {
		a := agent.Greedy(state, explored)
		if a != 1 && a != 3 {
			t.Fatalf("Greedy returned explored option %d", a)
		}
	}
	if a := agent.Greedy(state, []bool{true, true, true, true}); a != -1 {
		t.Errorf("Greedy with all explored = %d, want -1", a)
	}
}

func TestAgentSerializationRoundTrip(t *testing.T) {
	contexts := learnableWorkload(20)
	qte := &stubQTE{UnitMs: 40, BaseMs: 5}
	envCfg := EnvConfig{Budget: 500, QTE: qte, Beta: 1}
	agent := NewAgent(fastAgentConfig(), 4)
	agent.Train(contexts[:10], envCfg)

	data, err := json.Marshal(agent)
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadAgent(data, fastAgentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumOpts != 4 {
		t.Fatalf("NumOpts = %d", back.NumOpts)
	}
	// Same decisions on every context.
	for _, ctx := range contexts {
		a := agent.Rewrite(NewEnv(envCfg, ctx))
		b := back.Rewrite(NewEnv(envCfg, ctx))
		if a.Option != b.Option {
			t.Fatalf("decisions differ after round trip: %d vs %d", a.Option, b.Option)
		}
	}
}

// TestLoadAgentFile: the file helper round-trips a trained policy (the
// cmd/maliva-train → maliva-server -agent handoff) and reports missing or
// malformed files as errors.
func TestLoadAgentFile(t *testing.T) {
	contexts := learnableWorkload(20)
	qte := &stubQTE{UnitMs: 40, BaseMs: 5}
	envCfg := EnvConfig{Budget: 500, QTE: qte, Beta: 1}
	agent := NewAgent(fastAgentConfig(), 4)
	agent.Train(contexts[:10], envCfg)

	data, err := json.Marshal(agent)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "agent.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadAgentFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range contexts {
		a := agent.Rewrite(NewEnv(envCfg, ctx))
		b := back.Rewrite(NewEnv(envCfg, ctx))
		if a.Option != b.Option {
			t.Fatalf("decisions differ after file round trip: %d vs %d", a.Option, b.Option)
		}
	}

	if _, err := LoadAgentFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("expected error for missing file")
	}

	// SaveAgentFile writes the same format (the cmd/maliva-train path):
	// decisions survive a save/load round trip.
	saved := filepath.Join(t.TempDir(), "saved.json")
	if err := SaveAgentFile(saved, agent); err != nil {
		t.Fatal(err)
	}
	fromSave, err := LoadAgentFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range contexts {
		a := agent.Rewrite(NewEnv(envCfg, ctx))
		b := fromSave.Rewrite(NewEnv(envCfg, ctx))
		if a.Option != b.Option {
			t.Fatalf("decisions differ after SaveAgentFile round trip: %d vs %d", a.Option, b.Option)
		}
	}
	if err := SaveAgentFile(filepath.Join(t.TempDir(), "no-such-dir", "x.json"), agent); err == nil {
		t.Error("expected error for unwritable path")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAgentFile(bad); err == nil {
		t.Error("expected error for malformed snapshot")
	}
}

func TestLoadAgentRejectsGarbage(t *testing.T) {
	if _, err := LoadAgent([]byte("{"), fastAgentConfig()); err == nil {
		t.Error("expected error for malformed JSON")
	}
	if _, err := LoadAgent([]byte(`{"num_opts":2,"net":"zzz"}`), fastAgentConfig()); err == nil {
		t.Error("expected error for malformed network")
	}
}

func TestEpsilonDecays(t *testing.T) {
	agent := NewAgent(fastAgentConfig(), 4)
	e0 := agent.epsilon()
	agent.episodes = 10000
	e1 := agent.epsilon()
	if e0 <= e1 {
		t.Errorf("epsilon should decay: %v → %v", e0, e1)
	}
	if e1 < agent.Cfg.EpsEnd-1e-9 {
		t.Errorf("epsilon %v fell below floor %v", e1, agent.Cfg.EpsEnd)
	}
}

func TestTrainConvergenceStopsEarly(t *testing.T) {
	contexts := learnableWorkload(10)
	qte := &stubQTE{UnitMs: 40, BaseMs: 5}
	cfg := fastAgentConfig()
	cfg.MaxEpochs = 50
	cfg.ConvergeDelta = 1.0 // any non-improvement stops immediately
	agent := NewAgent(cfg, 4)
	res := agent.Train(contexts, EnvConfig{Budget: 500, QTE: qte, Beta: 1})
	if res.Epochs >= 50 {
		t.Errorf("expected early convergence, ran %d epochs", res.Epochs)
	}
}
