package cluster

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/middleware"
	"github.com/maliva/maliva/internal/workload"
)

// TestNodeRecoveringSentinel: while a node's gateway is replaying durable
// state, routed traffic is refused with the recovering sentinel and the
// router reads the replica as recovering (not routable); everything clears
// once the build completes.
func TestNodeRecoveringSentinel(t *testing.T) {
	release := make(chan struct{})
	cfg := workload.TwitterConfig()
	cfg.Rows = 2_000
	reg := workload.NewRegistry()
	if err := reg.Register("twitter", func() (*workload.Dataset, error) {
		<-release
		return workload.Twitter(cfg)
	}); err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(0, NewRing(1, 0), reg, middleware.OracleFactory, middleware.GatewayConfig{
		Server: middleware.ServerConfig{DefaultBudgetMs: 500},
		Space:  core.HintOnlySpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// Start the build without blocking on it, then flag it as WAL replay —
	// exactly what a server booting with -wal-dir does.
	if _, st, _ := reg.Poll("twitter"); st != workload.StatusWarming {
		t.Fatalf("poll status = %v, want warming", st)
	}
	reg.MarkRecovering("twitter")
	if !n.Recovering() {
		t.Fatal("node does not report recovering during replay")
	}
	if got := n.routingState(); got != StateRecovering {
		t.Fatalf("routing state = %v, want recovering", got)
	}

	ns := httptest.NewServer(n.Handler())
	defer ns.Close()
	code, hdr, _ := post(t, ns.URL+"/viz", twitterBody("word0001"))
	if code != http.StatusServiceUnavailable {
		t.Errorf("recovering /viz status = %d, want 503", code)
	}
	if got := hdr.Get(ReplicaUnavailableHeader); got != "recovering" {
		t.Errorf("sentinel = %q, want \"recovering\"", got)
	}

	// Replay completes: the node is live again and serves.
	close(release)
	if _, err := reg.Lookup("twitter"); err != nil {
		t.Fatal(err)
	}
	if n.Recovering() {
		t.Fatal("node still recovering after the build finished")
	}
	if got := n.routingState(); got != StateLive {
		t.Fatalf("routing state after recovery = %v, want live", got)
	}
	// The gateway's own serving entry (rewriter + server) finishes building
	// asynchronously after the registry unblocks; poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _, body := post(t, ns.URL+"/viz", twitterBody("word0001"))
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-recovery /viz = %d: %s", code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
