package cluster

import "testing"

// TestFaultsDeterministic: two injectors with the same seed draw the same
// fault sequence — the property that makes churn failures reproducible.
func TestFaultsDeterministic(t *testing.T) {
	cfg := FaultConfig{Seed: 42, DropRate: 0.2, ErrRate: 0.1, DelayRate: 0.1}
	a, b := NewFaults(cfg), NewFaults(cfg)
	for i := 0; i < 200; i++ {
		if ka, kb := a.decide(), b.decide(); ka != kb {
			t.Fatalf("draw %d diverged: %v vs %v", i, ka, kb)
		}
	}
	drops, errs, delays := a.Counts()
	if drops == 0 || errs == 0 || delays == 0 {
		t.Errorf("expected every fault kind in 200 draws, got drops=%d errs=%d delays=%d", drops, errs, delays)
	}
}
