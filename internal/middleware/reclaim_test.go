package middleware

import (
	"context"
	"testing"
	"time"

	"github.com/maliva/maliva/internal/workload"
)

// TestFlushReclaimsDeadVersions pins what the flush hook reclaims and what it
// must leave alone: after every flush no plan, result or containment family
// below the new version survives, and nothing keyed at the current version
// is ever touched.
func TestFlushReclaimsDeadVersions(t *testing.T) {
	s := freshIngestServer(t, ServerConfig{
		DefaultBudgetMs: 500,
		ResultTTL:       24 * time.Hour, // entries leave by reclaim or not at all
	})
	stream, err := workload.NewIngestStream(s.DS, 11)
	if err != nil {
		t.Fatal(err)
	}
	families := func(below uint64) (old, all int) {
		s.regions.mu.Lock()
		defer s.regions.mu.Unlock()
		for fam := range s.regions.fams {
			if fam.version < below {
				old++
			}
		}
		return old, len(s.regions.fams)
	}

	// Six shapes over three query signatures, served at v0 and again after
	// each of three flushes.
	reqs := ingestRequests()
	for f := 0; f <= 3; f++ {
		if f > 0 {
			if _, err := s.Ingest(stream.Next(16), true); err != nil {
				t.Fatal(err)
			}
			old, _ := families(s.DataVersion())
			if p, r := s.plans.len(), s.local.Len(); p != 0 || r != 0 || old != 0 {
				t.Fatalf("flush %d left %d plans, %d results and %d containment families of older versions", f, p, r, old)
			}
		}
		for _, req := range reqs {
			if _, err := s.Handle(req); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.plans.len(); got != 3 {
			t.Fatalf("plan cache holds %d entries at v%d, want 3", got, s.DataVersion())
		}
		if got := s.local.Len(); got != len(reqs) {
			t.Fatalf("result cache holds %d entries at v%d, want %d", got, s.DataVersion(), len(reqs))
		}
	}

	// The current version is never reclaimed, whatever fires the hook.
	cur := s.DataVersion()
	_, fams := families(cur)
	if fams == 0 {
		t.Fatal("no containment family at the current version")
	}
	s.plans.dropBelow(cur)
	s.local.dropBelow(cur)
	s.regions.dropBelow(cur)
	if _, after := families(cur); s.plans.len() != 3 || s.local.Len() != len(reqs) || after != fams {
		t.Errorf("reclaim at the current version dropped live entries: plans 3→%d, results %d→%d, families %d→%d",
			s.plans.len(), len(reqs), s.local.Len(), fams, after)
	}
	if _, src, err := s.handle(context.Background(), reqs[0], false); err != nil || src != fromCache {
		t.Errorf("current-version entry after reclaim: source=%d err=%v, want a result-cache hit", src, err)
	}
}

// TestPlanKeyVersionRoundTrip: the flush hook reads versions back out of plan
// keys, so the two halves of the key format must agree — also on signatures
// that themselves contain the separator or look like a prefix.
func TestPlanKeyVersionRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 9, 10, 1 << 40} {
		for _, sig := range []string{"SELECT 1", "v7\x00tricky", ""} {
			got, ok := planKeyVersion(planCacheKey(v, sig))
			if !ok || got != v {
				t.Errorf("planKeyVersion(planCacheKey(%d, %q)) = %d, %v", v, sig, got, ok)
			}
		}
	}
	for _, foreign := range []string{"", "k", "v", "vx\x00q", "v12", "7\x00q"} {
		if v, ok := planKeyVersion(foreign); ok {
			t.Errorf("planKeyVersion(%q) = %d, true; want not-a-plan-key", foreign, v)
		}
	}
}
