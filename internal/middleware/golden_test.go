package middleware

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestGoldenTraces pins the full Trace (option label, rewritten SQL,
// virtual times, viability) for a fixed seed and workload. The engine's
// virtual clock is deterministic, so any diff here means the rewriter or
// the engine changed behavior — surfacing regressions in the serving layer
// rather than only in the harness figures. Regenerate intentionally with:
//
//	go test ./internal/middleware -run TestGoldenTraces -update
func TestGoldenTraces(t *testing.T) {
	s := testServer(t)

	reqs := goldenRequests()
	got := make([]Trace, len(reqs))
	for i, req := range reqs {
		resp, err := s.Handle(req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		got[i] = resp.Trace
	}

	golden := filepath.Join("testdata", "trace_golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}

	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	var want []Trace
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d traces, produced %d", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("trace %d diverges from golden\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// goldenRequests are the requests whose traces testdata/trace_golden.json
// pins, in file order.
func goldenRequests() []Request {
	wide := validRequest()
	wide.Keyword = "word0002"
	wide.From = time.Date(2016, 6, 1, 0, 0, 0, 0, time.UTC)
	wide.To = time.Date(2016, 10, 1, 0, 0, 0, 0, time.UTC)
	wide.BudgetMs = 800
	scatter := validRequest()
	scatter.Kind = VizScatter
	scatter.BudgetMs = 300
	return []Request{validRequest(), wide, scatter}
}
