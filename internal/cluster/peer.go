package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/maliva/maliva/internal/middleware"
)

// PeerClient is one replica's view of another replica's result cache. Both
// methods are strictly cache operations — a fetch never triggers execution
// on the peer, so a slow query on one replica can't stall another replica's
// peer path. Errors mean "peer unreachable"; callers degrade to local
// compute (the budget never waits on a dead peer beyond the client timeout).
type PeerClient interface {
	// FetchResult asks the peer's local cache for key. ok reports a hit;
	// (nil, false, nil) is a clean miss. Cancelling ctx abandons the fetch
	// — the hedged-fetch race uses that to cancel the losing leg.
	FetchResult(ctx context.Context, dataset string, key middleware.ResultKey) (resp *middleware.Response, ok bool, err error)
	// FillResult offers the peer a computed response for key (best effort:
	// the peer may drop it).
	FillResult(dataset string, key middleware.ResultKey, resp *middleware.Response) error
}

// isTimeout classifies a peer error as a timeout (dead or stalled peer)
// rather than an immediate refusal — the split the fetch-timeout counter
// and the hedging policy care about.
func isTimeout(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// localPeer is the in-process PeerClient: replicas living in one process
// (a cluster built by New) exchange *Response pointers directly. Responses
// are immutable by the serving contract, so sharing is safe and byte
// identity is trivial.
type localPeer struct {
	node *Node
}

func (p localPeer) FetchResult(ctx context.Context, dataset string, key middleware.ResultKey) (*middleware.Response, bool, error) {
	if p.node.Down() {
		return nil, false, fmt.Errorf("cluster: replica %d is down", p.node.id)
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	resp, ok := p.node.fetchLocal(dataset, key)
	return resp, ok, nil
}

func (p localPeer) FillResult(dataset string, key middleware.ResultKey, resp *middleware.Response) error {
	if p.node.Down() {
		return fmt.Errorf("cluster: replica %d is down", p.node.id)
	}
	p.node.fillLocal(dataset, key, resp)
	return nil
}

// DefaultPeerTimeout bounds one peer round trip. It is deliberately tight:
// a peer fetch is an optimization, and a hung peer must cost less than the
// execution it was trying to save.
const DefaultPeerTimeout = 250 * time.Millisecond

// PeerSecretHeader carries the cluster's shared peer secret on /cluster
// requests. In a one-process-per-replica deployment the peer endpoints
// share the public listener, and an unauthenticated fill would let any
// client poison the result cache — breaking the bit-identity contract.
const PeerSecretHeader = "X-Maliva-Peer-Key"

// httpPeer reaches a replica in another process through its /cluster
// endpoints (see Node.Handler). Response JSON round-trips bit-identically:
// encoding/json emits the shortest float representation that decodes back to
// the same float64, and map keys encode sorted, so re-encoding a fetched
// response matches the owner's encoding byte for byte.
type httpPeer struct {
	base   string
	secret string
	client *http.Client
}

// NewHTTPPeer builds a PeerClient for a replica at base (e.g.
// "http://replica-1:8080"). timeout <= 0 picks DefaultPeerTimeout. secret
// (may be empty) is sent on every peer request and must match the
// receiving node's Node.SetPeerSecret value.
func NewHTTPPeer(base string, timeout time.Duration, secret string) PeerClient {
	if timeout <= 0 {
		timeout = DefaultPeerTimeout
	}
	return &httpPeer{base: base, secret: secret, client: &http.Client{Timeout: timeout}}
}

// post sends one peer request with the shared secret attached.
func (p *httpPeer) post(ctx context.Context, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if p.secret != "" {
		req.Header.Set(PeerSecretHeader, p.secret)
	}
	return p.client.Do(req)
}

func (p *httpPeer) FetchResult(ctx context.Context, dataset string, key middleware.ResultKey) (*middleware.Response, bool, error) {
	body, err := json.Marshal(key)
	if err != nil {
		return nil, false, err
	}
	hr, err := p.post(ctx, p.base+"/cluster/fetch?dataset="+dataset, body)
	if err != nil {
		return nil, false, err
	}
	defer hr.Body.Close()
	switch hr.StatusCode {
	case http.StatusOK:
		var resp middleware.Response
		if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
			return nil, false, err
		}
		return &resp, true, nil
	case http.StatusNoContent:
		return nil, false, nil
	default:
		msg, _ := io.ReadAll(io.LimitReader(hr.Body, 256))
		return nil, false, fmt.Errorf("cluster: peer fetch %s: %s", hr.Status, msg)
	}
}

// peerFill is the wire form of a fill offer.
type peerFill struct {
	Key      middleware.ResultKey `json:"key"`
	Response *middleware.Response `json:"response"`
}

func (p *httpPeer) FillResult(dataset string, key middleware.ResultKey, resp *middleware.Response) error {
	body, err := json.Marshal(peerFill{Key: key, Response: resp})
	if err != nil {
		return err
	}
	hr, err := p.post(context.Background(), p.base+"/cluster/fill?dataset="+dataset, body)
	if err != nil {
		return err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusNoContent {
		msg, _ := io.ReadAll(io.LimitReader(hr.Body, 256))
		return fmt.Errorf("cluster: peer fill %s: %s", hr.Status, msg)
	}
	return nil
}

// flightCall is one in-flight peer fetch shared by coalesced callers.
type flightCall struct {
	done chan struct{}
	resp *middleware.Response
	ok   bool
	err  error
}

// flightGroup coalesces concurrent peer fetches for the same key: under a
// stampede of identical requests on a non-owner replica, exactly one fetch
// crosses the wire and everyone shares the answer. Together with the
// router concentrating each key on its owner, this is what keeps one cold
// key at one execution cluster-wide.
type flightGroup struct {
	mu    sync.Mutex
	calls map[middleware.ResultKey]*flightCall
}

// do runs fn for key unless an identical call is already in flight, in
// which case it waits for and shares that call's result. shared reports
// whether this caller piggybacked.
func (g *flightGroup) do(key middleware.ResultKey, fn func() (*middleware.Response, bool, error)) (resp *middleware.Response, ok bool, err error, shared bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[middleware.ResultKey]*flightCall)
	}
	if c, inflight := g.calls[key]; inflight {
		g.mu.Unlock()
		<-c.done
		return c.resp, c.ok, c.err, true
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.resp, c.ok, c.err = fn()
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.resp, c.ok, c.err, false
}
