package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/middleware"
	"github.com/maliva/maliva/internal/workload"
)

// reexecEnv makes the test binary run the shipped main() instead of the
// tests: the crash test needs a real process to SIGKILL, and re-executing
// itself gets one without a nested `go build` or a second server wiring.
const reexecEnv = "MALIVA_SERVER_TEST_REEXEC"

func TestMain(m *testing.M) {
	if os.Getenv(reexecEnv) == "1" {
		main() // returns only after a clean shutdown; failures os.Exit(1)
		return
	}
	os.Exit(m.Run())
}

const (
	victimRows = 8_000
	batchRows  = 32 // one sync batch is one WAL record, so recovery is whole multiples
)

// victim is one re-exec'd maliva-server.
type victim struct {
	cmd     *exec.Cmd
	url     string
	logPath string        // the child's stderr, readable while it runs
	exited  chan struct{} // closed once cmd.Wait has returned
}

func (v *victim) log() string {
	b, _ := os.ReadFile(v.logPath) // diagnostics; an unreadable log reads as empty
	return string(b)
}

// freeAddrs returns n distinct loopback addresses whose ports were just
// free: the server has no "port 0, tell me" mode, and a peer list must name
// every replica's address before any of them starts.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close() // held until all are picked, so no port repeats
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// spawnServer re-execs main() listening on addr with the given flags and
// waits until /healthz answers with the twitter dataset ready. The server
// opens its listener only after every dataset is built and its WAL
// replayed, so any /healthz that answers must report every dataset ready:
// anything else fails the test.
func spawnServer(t *testing.T, addr string, args ...string) *victim {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot re-exec the test binary: %v", err)
	}
	v := &victim{url: "http://" + addr, exited: make(chan struct{}),
		logPath: filepath.Join(t.TempDir(), "stderr.log")}
	stderr, err := os.Create(v.logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close() // the child holds its own descriptor
	v.cmd = exec.Command(exe, append([]string{"-addr", addr}, args...)...)
	v.cmd.Env = append(os.Environ(), reexecEnv+"=1")
	v.cmd.Stderr = stderr
	if err := v.cmd.Start(); err != nil {
		t.Skipf("cannot re-exec the test binary: %v", err)
	}
	go func() {
		_ = v.cmd.Wait() // the exit status is read from ProcessState
		close(v.exited)
	}()
	t.Cleanup(func() {
		_ = v.cmd.Process.Kill()
		<-v.exited
		if t.Failed() {
			t.Logf("server %s stderr:\n%s", addr, v.log())
		}
	})

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(v.url + "/healthz")
		if err == nil {
			var health struct {
				Datasets map[string]string `json:"datasets"`
			}
			decErr := json.NewDecoder(resp.Body).Decode(&health)
			resp.Body.Close()
			if decErr != nil {
				t.Fatalf("/healthz answered %d with an undecodable body: %v", resp.StatusCode, decErr)
			}
			for name, st := range health.Datasets {
				if st != "ready" {
					t.Fatalf("/healthz answered with dataset %s %q: the listener opened before it was built", name, st)
				}
			}
			if health.Datasets["twitter"] == "ready" {
				return v
			}
		}
		select {
		case <-v.exited:
			t.Fatalf("server exited during startup: %v", v.cmd.ProcessState)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// spawnVictim starts `maliva-server -rewriter oracle -rows 8000 -wal-dir dir
// -fsync always` on a free loopback port.
func spawnVictim(t *testing.T, walDir string) *victim {
	t.Helper()
	return spawnServer(t, freeAddrs(t, 1)[0], "-rewriter", "oracle",
		"-rows", strconv.Itoa(victimRows), "-wal-dir", walDir, "-fsync", "always")
}

var replayedRe = regexp.MustCompile(`replayed (\d+) records / (\d+) rows`)

// replayedRows is the row count the server logged replaying at startup.
func (v *victim) replayedRows(t *testing.T) int {
	t.Helper()
	m := replayedRe.FindStringSubmatch(v.log())
	if m == nil {
		t.Fatalf("server logged no WAL replay line:\n%s", v.log())
	}
	rows, _ := strconv.Atoi(m[2]) // the pattern admits only digits
	return rows
}

// kill SIGKILLs the server — the crash under test.
func (v *victim) kill() {
	_ = v.cmd.Process.Kill()
	<-v.exited
}

// terminate SIGTERMs the server and requires the clean exit 0 of a graceful
// drain (http.Server.Shutdown returning nil is the proof that no accepted
// request was torn).
func (v *victim) terminate(t *testing.T) {
	t.Helper()
	if err := v.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signaling server: %v", err)
	}
	select {
	case <-v.exited:
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
	if !v.cmd.ProcessState.Success() {
		t.Fatalf("server exited %v after SIGTERM, want clean exit 0", v.cmd.ProcessState)
	}
}

// postIngest sends one batch of wire-form rows to a server's write path.
func postIngest(url string, rows []map[string]any, sync bool) error {
	body, err := json.Marshal(map[string]any{"rows": rows, "sync": sync})
	if err != nil {
		return err
	}
	resp, err := http.Post(url+"/ingest?dataset=twitter", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ingest: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// postViz returns one /viz response's status and bytes.
func postViz(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url+"/viz?dataset=twitter", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// probeBodies is a fixed read mix whose answers move with every ingested
// batch: an unfiltered count over the whole time domain, and keyword
// heatmaps over the full extent across four windows.
func probeBodies(ds *workload.Dataset) [][]byte {
	whole := map[string]any{
		"kind": "count", "from": "1970-01-01T00:00:00Z", "to": "2100-01-01T00:00:00Z",
	}
	probes := []map[string]any{whole}
	for k := 0; k < 6; k++ {
		for w := 0; w < 4; w++ {
			from := ds.TimeOrigin.AddDate(0, 0, 60*w)
			probes = append(probes, map[string]any{
				"kind": "heatmap", "grid_w": 32, "grid_h": 16,
				"keyword": fmt.Sprintf("word%04d", 3+7*k),
				"from":    from.Format(time.RFC3339), "to": from.AddDate(0, 0, 90).Format(time.RFC3339),
				"min_lon": ds.Extent.MinLon, "min_lat": ds.Extent.MinLat,
				"max_lon": ds.Extent.MaxLon, "max_lat": ds.Extent.MaxLat,
			})
		}
	}
	out := make([][]byte, len(probes))
	for i, p := range probes {
		out[i], _ = json.Marshal(p) // a map of strings and numbers cannot fail
	}
	return out
}

func buildTwitter(t *testing.T) *workload.Dataset {
	t.Helper()
	build, err := workload.StandardBuilder("twitter", victimRows)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestCrashRecoveryAndDrain drives the shipped main() as a child process
// through the durability contract. Kill phase: sync-ingest into a WAL-backed
// server, SIGKILL it mid-ingest, restart it over the same log; every
// acknowledged row must be back, in whole batches, and reads must be
// byte-identical to an uncrashed in-process gateway that ingested the same
// batch prefix. Drain phase: SIGTERM a server under read+write load; it must
// exit 0 with no in-flight response torn and leave a log that replays
// exactly the acknowledged rows.
func TestCrashRecoveryAndDrain(t *testing.T) {
	switch runtime.GOOS {
	case "windows", "plan9", "js", "wasip1":
		t.Skipf("needs SIGKILL/SIGTERM and re-exec; unavailable on %s", runtime.GOOS)
	}

	// The control dataset doubles as the metadata source for the ingest
	// streams and probes; both streams are built before anything is ingested
	// so they replay the identical batch sequence.
	ctrlDS := buildTwitter(t)
	sent, err := workload.NewIngestStream(ctrlDS, 900)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := workload.NewIngestStream(ctrlDS, 900)
	if err != nil {
		t.Fatal(err)
	}
	drainStream, err := workload.NewIngestStream(ctrlDS, 901)
	if err != nil {
		t.Fatal(err)
	}
	probes := probeBodies(ctrlDS)

	// ---- Kill phase ----
	walDir := t.TempDir()
	v1 := spawnVictim(t, walDir)
	if rows := v1.replayedRows(t); rows != 0 {
		t.Fatalf("fresh WAL replayed %d rows, want 0", rows)
	}
	// The writer keeps the wire hot past the kill point, so the SIGKILL lands
	// mid-request; its last post fails against the dead process.
	const killAfter = 6
	var acked atomic.Int64
	killNow := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		for {
			if err := postIngest(v1.url, sent.Next(batchRows), true); err != nil {
				writerErr <- err
				return
			}
			if acked.Add(1) == killAfter {
				close(killNow)
			}
		}
	}()
	select {
	case <-killNow:
		v1.kill()
	case err := <-writerErr:
		t.Fatalf("writer died before the kill point: %v", err)
	}
	<-writerErr
	ackedRows := int(acked.Load()) * batchRows

	v2 := spawnVictim(t, walDir)
	recovered := v2.replayedRows(t)
	if recovered < ackedRows {
		t.Fatalf("lost %d acknowledged rows (acked %d, recovered %d)", ackedRows-recovered, ackedRows, recovered)
	}
	if recovered%batchRows != 0 {
		t.Fatalf("recovered %d rows is not whole batches of %d: a record was applied partially", recovered, batchRows)
	}

	reg := workload.NewRegistry()
	if err := reg.Register("twitter", func() (*workload.Dataset, error) { return ctrlDS, nil }); err != nil {
		t.Fatal(err)
	}
	ctrl, err := middleware.NewGateway(reg, middleware.OracleFactory, middleware.GatewayConfig{
		Server: middleware.ServerConfig{DefaultBudgetMs: 500, PlanCacheSize: -1, ResultCacheSize: -1},
		Space:  core.HintOnlySpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ctrlSrv := httptest.NewServer(ctrl.Handler())
	defer ctrlSrv.Close()
	for i := 0; i < recovered/batchRows; i++ {
		if err := postIngest(ctrlSrv.URL, replayed.Next(batchRows), true); err != nil {
			t.Fatalf("control ingest: %v", err)
		}
	}
	for i, body := range probes {
		wantCode, want, err := postViz(http.DefaultClient, ctrlSrv.URL, body)
		if err != nil || wantCode != http.StatusOK {
			t.Fatalf("probe %d: control status %d, err %v: %s", i, wantCode, err, want)
		}
		gotCode, got, err := postViz(http.DefaultClient, v2.url, body)
		if err != nil || gotCode != http.StatusOK {
			t.Fatalf("probe %d: recovered server status %d, err %v: %s", i, gotCode, err, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("probe %d diverged from the uncrashed control\ngot:  %s\nwant: %s", i, got, want)
		}
	}
	v2.terminate(t)

	// ---- Drain phase ----
	walDir2 := t.TempDir()
	v3 := spawnVictim(t, walDir2)
	// Readers dial a fresh connection per request: a pooled connection the
	// shutting-down server just closed as idle yields an EOF that is NOT a
	// torn request, and the transport will not retry a POST. With fresh
	// connections the outcomes are unambiguous.
	readClient := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
	var okReads, torn atomic.Int64
	stopRead := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for i := w; ; i += 7 {
				select {
				case <-stopRead:
					return
				default:
				}
				code, _, err := postViz(readClient, v3.url, probes[i%len(probes)])
				switch {
				case err != nil && code == 0 && strings.Contains(err.Error(), "connection refused"):
					return // the listener is gone: never accepted
				case err != nil && code == 0 && strings.Contains(err.Error(), "connection reset"):
					// Handshaken into the kernel backlog, never accepted by
					// the server: not in flight server-side.
				case err != nil:
					torn.Add(1) // a status line arrived and the body tore
				case code == http.StatusOK:
					okReads.Add(1)
				case code == http.StatusServiceUnavailable, code == http.StatusTooManyRequests:
					// clean drain/admission rejection
				default:
					torn.Add(1)
				}
			}
		}(w)
	}
	var acked2 atomic.Int64
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for {
			if postIngest(v3.url, drainStream.Next(batchRows), false) != nil {
				return // drained or listener closed: both are clean stops
			}
			acked2.Add(1)
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(250 * time.Millisecond)
	v3.terminate(t)
	close(stopRead)
	readers.Wait()
	<-writerDone
	if n := torn.Load(); n > 0 {
		t.Errorf("graceful drain tore %d in-flight responses", n)
	}
	if okReads.Load() == 0 {
		t.Error("drain phase served no reads; it exercised nothing")
	}
	stats := replayWAL(t, filepath.Join(walDir2, "twitter"))
	if want := int(acked2.Load()) * batchRows; stats.Rows != want || stats.Truncated {
		t.Errorf("post-drain WAL replays %d rows (truncated=%t), want exactly the %d acknowledged",
			stats.Rows, stats.Truncated, want)
	}
}

// replayWAL replays a closed server's log into a fresh dataset.
func replayWAL(t *testing.T, dir string) engine.WALReplayStats {
	t.Helper()
	ds := buildTwitter(t)
	wal, stats, err := ds.DB.AttachWAL(ds.Main, dir, engine.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestRejectsBadFlags: flag values the server would otherwise replace or
// ignore exit 1 before any dataset is built, and a removed flag is a usage
// error (exit 2).
func TestRejectsBadFlags(t *testing.T) {
	switch runtime.GOOS {
	case "js", "wasip1":
		t.Skipf("needs re-exec; unavailable on %s", runtime.GOOS)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot re-exec the test binary: %v", err)
	}
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-budget", "0"}, 1, "-budget must be positive"},
		{[]string{"-budget", "-50"}, 1, "-budget must be positive"},
		{[]string{"-rows", "0"}, 1, "-rows must be positive"},
		{[]string{"-queries", "-1"}, 1, "-queries must be positive"},
		{[]string{"-replica-id", "0"}, 1, "-replica-id requires -peer"},
		{[]string{"-peer-timeout", "1s"}, 1, "-peer-timeout requires -peer"},
		{[]string{"-peer-secret", "s3cret"}, 1, "-peer-secret requires -peer"},
		{[]string{"-no-hedge"}, 1, "-no-hedge requires -peer"},
		{[]string{"-replicas", "2"}, 2, "flag provided but not defined: -replicas"},
		{[]string{"-lazy"}, 2, "flag provided but not defined: -lazy"},
		{[]string{"-plan-cache", "-1"}, 2, "flag provided but not defined: -plan-cache"},
		{[]string{"-result-cache", "-1"}, 2, "flag provided but not defined: -result-cache"},
		{[]string{"-max-concurrent", "4"}, 2, "flag provided but not defined: -max-concurrent"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			// A server that accepted the flags would serve until killed.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			args := append([]string{"-addr", "127.0.0.1:0", "-rewriter", "oracle"}, tc.args...)
			cmd := exec.CommandContext(ctx, exe, args...)
			cmd.Env = append(os.Environ(), reexecEnv+"=1")
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != tc.code {
				t.Fatalf("got %v, want exit status %d\n%s", err, tc.code, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestPeerReplicasShareResults drives the one cluster shape the binary
// ships: two maliva-server processes, one per replica, given the same -peer
// list. Every /viz must answer byte-identically on both, and replica 1 must
// serve some of them from replica 0's cache — fetched from the owner or
// filled by it — rather than only from its own executions.
func TestPeerReplicasShareResults(t *testing.T) {
	switch runtime.GOOS {
	case "windows", "plan9", "js", "wasip1":
		t.Skipf("needs re-exec; unavailable on %s", runtime.GOOS)
	}
	addrs := freeAddrs(t, 2)
	replicas := make([]*victim, len(addrs))
	for i, addr := range addrs {
		replicas[i] = spawnServer(t, addr, "-rewriter", "oracle", "-rows", strconv.Itoa(victimRows),
			"-peer", "http://"+addrs[0], "-peer", "http://"+addrs[1], "-replica-id", strconv.Itoa(i))
	}
	for i, body := range probeBodies(buildTwitter(t)) {
		var got [2][]byte
		for r, v := range replicas {
			code, data, err := postViz(http.DefaultClient, v.url, body)
			if err != nil || code != http.StatusOK {
				t.Fatalf("probe %d: replica %d status %d, err %v: %s", i, r, code, err, data)
			}
			got[r] = data
		}
		if !bytes.Equal(got[0], got[1]) {
			t.Fatalf("probe %d diverged across replicas\nreplica 0: %s\nreplica 1: %s", i, got[0], got[1])
		}
	}

	resp, err := http.Get(replicas[1].url + "/metrics?dataset=twitter&format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap middleware.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	// Replica 1 saw each probe once, after replica 0 had answered it, so any
	// result-cache hit on it is an answer replica 0 computed.
	t.Logf("replica 1: %d result hits, %d misses", snap.ResultHits, snap.ResultMisses)
	if snap.ResultHits == 0 {
		t.Fatalf("replica 1 never served a result from replica 0: %+v", snap)
	}
}
