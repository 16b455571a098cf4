package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/maliva/maliva/internal/middleware"
)

// numClients is the closed-loop client count: each client is one goroutine
// with one keep-alive connection that sends its next request only after the
// previous response is fully read. More clients than processors would
// measure the scheduler; the generator shares the process with the server.
func numClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// client is one closed-loop HTTP client with a private connection and a
// reusable response buffer.
type client struct {
	hc  *http.Client
	url string
	buf bytes.Buffer
}

func newClient(url string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, url: url}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one body and reads the whole response. The returned slice
// aliases the client's buffer and is valid until the next call.
func (c *client) post(path string, body []byte, sessionID string) (status int, resp []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if sessionID != "" {
		req.Header.Set(middleware.SessionHeader, sessionID)
	}
	r, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, r.Body)
	_ = r.Body.Close() // fully read or already failed; nothing left to report
	if err != nil {
		return r.StatusCode, nil, err
	}
	return r.StatusCode, c.buf.Bytes(), nil
}

// sample is what one answered /viz request contributes.
type sample struct {
	latency   time.Duration
	viable    bool
	virtualMs float64
}

var (
	viableKey  = []byte(`"viable":`)
	totalMsKey = []byte(`"total_ms":`)
)

// virtualClock pulls Trace.Viable and Trace.TotalMs out of a response by
// byte scan — no JSON decode in the request loop. The trace is the last
// object of the body and a key cannot occur inside a JSON string unescaped,
// so the last occurrence is the trace's own field.
func virtualClock(resp []byte) (viable bool, totalMs float64, err error) {
	i := bytes.LastIndex(resp, viableKey)
	j := bytes.LastIndex(resp, totalMsKey)
	if i < 0 || j < 0 {
		return false, 0, fmt.Errorf("response carries no trace")
	}
	viable = bytes.HasPrefix(resp[i+len(viableKey):], []byte("true"))
	num := resp[j+len(totalMsKey):]
	end := bytes.IndexAny(num, ",}")
	if end < 0 {
		return false, 0, fmt.Errorf("unterminated total_ms")
	}
	totalMs, err = strconv.ParseFloat(string(num[:end]), 64)
	return viable, totalMs, err
}

// viz issues one /viz request and measures it from before the request is
// written to after the last body byte is read.
func (c *client) viz(body []byte, sessionID string) (sample, error) {
	t0 := time.Now()
	status, resp, err := c.post("/viz", body, sessionID)
	lat := time.Since(t0)
	if err != nil {
		return sample{}, err
	}
	if status != http.StatusOK {
		return sample{}, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(resp))
	}
	viable, ms, err := virtualClock(resp)
	if err != nil {
		return sample{}, err
	}
	return sample{latency: lat, viable: viable, virtualMs: ms}, nil
}

// tally accumulates the operations of a section.
type tally struct {
	samples   []sample
	attempted int
	failed    int
	firstErr  error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) merge(o *tally) {
	t.samples = append(t.samples, o.samples...)
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// passStats is one timed pass reduced to the reported quantities.
type passStats struct {
	qps      float64
	p50Ms    float64
	p95Ms    float64
	meanMs   float64
	cpuMsReq float64
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func summarize(samples []sample, elapsed, cpu time.Duration) passStats {
	n := len(samples)
	if n == 0 {
		return passStats{}
	}
	lat := make([]float64, n)
	sum := 0.0
	for i, s := range samples {
		lat[i] = float64(s.latency) / float64(time.Millisecond)
		sum += lat[i]
	}
	sort.Float64s(lat)
	return passStats{
		qps:      float64(n) / elapsed.Seconds(),
		p50Ms:    quantile(lat, 0.50),
		p95Ms:    quantile(lat, 0.95),
		meanMs:   sum / float64(n),
		cpuMsReq: float64(cpu) / float64(time.Millisecond) / float64(n),
	}
}

// quantile is the nearest-rank quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runPass has the clients drain n requests (body(i) for i in [0,n)) from a
// shared cursor, closed loop, and returns what they saw plus the pass's wall
// and CPU time. spans, when non-nil, receives one client-side span per
// request (the traced run's tracing-on passes).
func runPass(clients []*client, n int, body func(i int) []byte, spans *tracer) (*tally, time.Duration, time.Duration) {
	var cursor atomic.Int64
	parts := make([]*tally, len(clients))
	var wg sync.WaitGroup
	cpu0, t0 := cpuTime(), time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			t := &tally{samples: make([]sample, 0, n/len(clients)+1)}
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					break
				}
				t.attempted++
				id := spans.begin("http.roundtrip", 0, i)
				s, err := c.viz(body(i), "")
				spans.end(id)
				if err != nil {
					t.fail(fmt.Errorf("request %d: %w", i, err))
					continue
				}
				t.samples = append(t.samples, s)
			}
			parts[ci] = t
		}(ci, c)
	}
	wg.Wait()
	elapsed, cpu := time.Since(t0), cpuTime()-cpu0
	total := &tally{}
	for _, p := range parts {
		total.merge(p)
	}
	return total, elapsed, cpu
}
