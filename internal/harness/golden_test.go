package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenExperiments are the experiments testdata/paper_small.golden pins, in
// file order. fig12, fig14, fig16 and fig21 stay out: at -small they take
// 15–55 s each, and fig21 prints training wall time.
var goldenExperiments = []string{"t1", "t2", "t3", "s1", "fig18", "fig19", "fig20", "abl"}

// TestPaperTablesGolden pins the reproduction itself: the listed experiments
// at -small scale, rendered exactly as `maliva-bench -small` prints them. The
// lab pipeline is seeded and bit-identical at any GOMAXPROCS, so any diff
// means a change under core, qte, nn, bao, harness or engine moved a paper
// number. Re-baseline intentionally with:
//
//	go test ./internal/harness -run TestPaperTablesGolden -update
func TestPaperTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight experiments at -small scale (≈ 20 s)")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector; CI runs it in a plain pass")
	}
	var got bytes.Buffer
	for _, id := range goldenExperiments {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		rep, err := e.Run(RunConfig{Small: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		rep.Write(&got)
	}

	golden := filepath.Join("testdata", "paper_small.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d diverges\n got %q\nwant %q", golden, i+1, g, w)
		}
	}
}
