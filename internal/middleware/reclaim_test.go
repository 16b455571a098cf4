package middleware

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/workload"
)

// TestFlushReclaimsDeadVersions pins what the flush hook reclaims and what it
// must leave alone: plan entries of every older version go at once; result
// entries and containment families survive exactly as long as a /* ttl:N */
// probe can still reach them (maxStaleProbes flushes) and go with the next
// flush; nothing keyed at the current version is ever touched.
func TestFlushReclaimsDeadVersions(t *testing.T) {
	var mu sync.Mutex
	clock := time.Unix(1_700_000_000, 0)
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	advance := func(d time.Duration) { mu.Lock(); clock = clock.Add(d); mu.Unlock() }

	s := freshIngestServer(t, ServerConfig{
		DefaultBudgetMs: 500,
		ResultTTL:       24 * time.Hour, // entries leave by reclaim or not at all
		Now:             now,
		Ingest:          engine.IngestorConfig{Now: now},
	})
	stream, err := workload.NewIngestStream(s.DS, 11)
	if err != nil {
		t.Fatal(err)
	}
	flush := func() {
		t.Helper()
		advance(time.Second)
		if _, err := s.Ingest(stream.Next(16), true); err != nil {
			t.Fatal(err)
		}
	}
	oldFamilies := func(below uint64) int {
		s.regions.mu.Lock()
		defer s.regions.mu.Unlock()
		n := 0
		for fam := range s.regions.fams {
			if fam.version < below {
				n++
			}
		}
		return n
	}

	// Version 0: six shapes over three query signatures.
	reqs := ingestRequests()
	var v0 []byte
	for i, req := range reqs {
		resp, err := s.Handle(req)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			v0, _ = json.Marshal(resp)
		}
	}
	if got := s.plans.len(); got != 3 {
		t.Fatalf("plan cache holds %d entries at v0, want 3", got)
	}
	if got := s.local.Len(); got != len(reqs) {
		t.Fatalf("result cache holds %d entries at v0, want %d", got, len(reqs))
	}

	// maxStaleProbes flushes later the v0 plans are long gone, the v0 results
	// are all still there, and a ttl-hinted request reaches back all eight
	// versions for the v0 answer, byte for byte.
	for f := 1; f <= maxStaleProbes; f++ {
		flush()
		if got := s.plans.len(); got != 0 {
			t.Fatalf("flush %d left %d plan entries of older versions", f, got)
		}
		// One shape per version (never reqs[0]), so every version in the probe
		// window has entries of its own and a plan to reclaim.
		if _, err := s.Handle(reqs[1+f%(len(reqs)-1)]); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.local.Len(), len(reqs)+maxStaleProbes; got != want {
		t.Fatalf("result cache holds %d entries inside the probe window, want %d (nothing reclaimed yet)", got, want)
	}
	hinted := reqs[0]
	hinted.TTL = time.Hour
	resp, cached, err := s.handle(context.Background(), hinted, false)
	if err != nil || !cached {
		t.Fatalf("ttl-hinted request %d flushes after v0: cached=%v err=%v, want a stale hit", maxStaleProbes, cached, err)
	}
	if got, _ := json.Marshal(resp); !bytes.Equal(got, v0) {
		t.Error("stale hit is not the v0 answer")
	}

	// One more flush moves v0 out of the window: its six results and its
	// containment families are reclaimed, and the hint recomputes.
	flush()
	if got, want := s.local.Len(), maxStaleProbes; got != want {
		t.Errorf("result cache holds %d entries after v0 left the window, want %d", got, want)
	}
	if got := oldFamilies(s.DataVersion() - maxStaleProbes); got != 0 {
		t.Errorf("%d containment families older than the probe window survive", got)
	}
	if _, cached, err := s.handle(context.Background(), hinted, false); err != nil || cached {
		t.Fatalf("ttl-hinted request after v0 left the window: cached=%v err=%v, want recompute", cached, err)
	}

	// The current version is never reclaimed, whatever fires the hook.
	cur := s.DataVersion()
	plans, results := s.plans.len(), s.local.Len()
	s.plans.dropBelow(cur)
	s.local.dropBelow(cur - maxStaleProbes)
	s.regions.dropBelow(cur - maxStaleProbes)
	if s.plans.len() != plans || s.local.Len() != results {
		t.Errorf("reclaim at the current version dropped live entries: plans %d→%d, results %d→%d",
			plans, s.plans.len(), results, s.local.Len())
	}
	unhinted := reqs[0]
	if _, cached, err := s.handle(context.Background(), unhinted, false); err != nil || !cached {
		t.Errorf("current-version entry after reclaim: cached=%v err=%v, want a hit", cached, err)
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
