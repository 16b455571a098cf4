package cluster

import (
	"sync/atomic"

	"github.com/maliva/maliva/internal/middleware"
)

// cacheStats are one replica's peer-cache counters, aggregated across its
// datasets (the per-dataset split lives in each gateway's own metrics).
type cacheStats struct {
	localHits        atomic.Int64 // served from this replica's own cache
	peerHits         atomic.Int64 // served from the owning replica's cache
	peerMisses       atomic.Int64 // owner consulted, had nothing
	peerErrors       atomic.Int64 // owner unreachable → local compute
	fetchesCoalesced atomic.Int64 // fetches that piggybacked on an in-flight one
	fetchesServed    atomic.Int64 // peer fetches this replica answered
	fetchTimeouts    atomic.Int64 // peer fetches that timed out (dead/stalled peer)
	hedgedFetches    atomic.Int64 // hedge legs launched (slow or failed owner)
	hedgeWins        atomic.Int64 // races the hedge leg won
	fillsReceived    atomic.Int64 // fills this replica accepted as owner
	fillsSent        atomic.Int64 // fills delivered to an owner
	fillsDropped     atomic.Int64 // fills dropped (queue full or owner down)

	fetchVersionRejects atomic.Int64 // peer fetches refused: key at another data version
	fillVersionRejects  atomic.Int64 // fills refused: key at another data version
}

// CacheSnapshot is the JSON form of one replica's peer-cache counters.
type CacheSnapshot struct {
	LocalHits        int64 `json:"local_hits"`
	PeerHits         int64 `json:"peer_hits"`
	PeerMisses       int64 `json:"peer_misses"`
	PeerErrors       int64 `json:"peer_errors"`
	FetchesCoalesced int64 `json:"fetches_coalesced"`
	FetchesServed    int64 `json:"fetches_served"`
	FetchTimeouts    int64 `json:"fetch_timeouts"`
	HedgedFetches    int64 `json:"hedged_fetches"`
	HedgeWins        int64 `json:"hedge_wins"`
	FillsReceived    int64 `json:"fills_received"`
	FillsSent        int64 `json:"fills_sent"`
	FillsDropped     int64 `json:"fills_dropped"`

	FetchVersionRejects int64 `json:"fetch_version_rejects"`
	FillVersionRejects  int64 `json:"fill_version_rejects"`
}

func (s *cacheStats) snapshot() CacheSnapshot {
	return CacheSnapshot{
		LocalHits:        s.localHits.Load(),
		PeerHits:         s.peerHits.Load(),
		PeerMisses:       s.peerMisses.Load(),
		PeerErrors:       s.peerErrors.Load(),
		FetchesCoalesced: s.fetchesCoalesced.Load(),
		FetchesServed:    s.fetchesServed.Load(),
		FetchTimeouts:    s.fetchTimeouts.Load(),
		HedgedFetches:    s.hedgedFetches.Load(),
		HedgeWins:        s.hedgeWins.Load(),
		FillsReceived:    s.fillsReceived.Load(),
		FillsSent:        s.fillsSent.Load(),
		FillsDropped:     s.fillsDropped.Load(),

		FetchVersionRejects: s.fetchVersionRejects.Load(),
		FillVersionRejects:  s.fillVersionRejects.Load(),
	}
}

// peerCache is the groupcache-style middleware.ResultCache a cluster node
// installs around each dataset's local LRU cache:
//
//   - Get first consults the local cache. On a miss, if another replica owns
//     the key (consistent hash of ResultKey.Hash()), it fetches from that
//     owner's cache — with single-flight coalescing, so a stampede of
//     identical requests crosses the wire once, and hedging, so a slow owner
//     is raced against the next ring replica (see Node.hedgedFetch). A peer
//     hit is copied into the local cache, so hot foreign keys are served
//     locally afterwards.
//   - A peer error (owner down, timeout) degrades to a miss: the server
//     computes locally and the response budget never waits on a dead peer.
//   - Put stores locally and, when another replica owns the key, offers the
//     response to the owner asynchronously (best effort), so one cold
//     execution anywhere eventually fills the whole cluster.
//
// Determinism: every replica computes bit-identical responses for equal
// keys (all engine randomness derives from per-query fingerprints), so it
// never matters whether a response came from local compute, the local
// cache, or a peer.
type peerCache struct {
	dataset string
	node    *Node
	local   middleware.ResultCache
	flight  flightGroup
}

var _ middleware.ResultCache = (*peerCache)(nil)

// Get implements middleware.ResultCache.
func (c *peerCache) Get(key middleware.ResultKey) *middleware.Response {
	n := c.node
	if resp := c.local.Get(key); resp != nil {
		n.stats.localHits.Add(1)
		return resp
	}
	// Keys at a non-current data version never cross the wire: they are the
	// server's `/* ttl:N */` stale-tolerance probes, which are a local-only
	// bonus (owners refuse them anyway — see Node.fetchLocal), and spending a
	// peer round-trip on a probe would put a flush-lagging replica's latency
	// on the serving path.
	if v, ok := n.dataVersion(c.dataset); ok && key.DataVersion != v {
		return nil
	}
	// Ownership is resolved over the ROUTABLE replica set (Ring.OwnerAmong),
	// the same restricted key space the router walks. The full-ring owner
	// may be down or draining; asking it anyway would burn the peer timeout
	// exactly when the cluster is degraded, and — worse — the replica the
	// router actually concentrated the key on would never be consulted.
	owner := n.ownerFor(key.Hash())
	if owner == n.id {
		// We own this key: a local miss is a real miss. The server computes
		// and its Put lands in our local cache — the one execution the
		// router's key concentration promises.
		return nil
	}
	peer := n.peer(owner)
	if peer == nil {
		return nil
	}
	resp, ok, err, shared := c.flight.do(key, func() (*middleware.Response, bool, error) {
		return n.hedgedFetch(c.dataset, key, owner, peer)
	})
	if shared {
		n.stats.fetchesCoalesced.Add(1)
	}
	switch {
	case err != nil:
		n.stats.peerErrors.Add(1)
		return nil
	case !ok:
		n.stats.peerMisses.Add(1)
		return nil
	}
	n.stats.peerHits.Add(1)
	c.local.Put(key, resp)
	return resp
}

// Put implements middleware.ResultCache.
func (c *peerCache) Put(key middleware.ResultKey, resp *middleware.Response) {
	c.local.Put(key, resp)
	// A response computed just before a flush landed carries a superseded
	// version; the owner would refuse the fill, so don't bother sending it.
	if v, ok := c.node.dataVersion(c.dataset); ok && key.DataVersion != v {
		return
	}
	if owner := c.node.ownerFor(key.Hash()); owner != c.node.id {
		c.node.enqueueFill(fillReq{dataset: c.dataset, owner: owner, key: key, resp: resp})
	}
}

// Len implements middleware.ResultCache (local entries only).
func (c *peerCache) Len() int { return c.local.Len() }

// GetLocal implements middleware.LocalGetter: a probe of this replica's own
// cache only, with no peer fetch and no stats. The server's subsumption
// index uses it to validate containment candidates — a speculative probe
// must never put a peer round trip on the live miss path.
func (c *peerCache) GetLocal(key middleware.ResultKey) *middleware.Response {
	return c.local.Get(key)
}
