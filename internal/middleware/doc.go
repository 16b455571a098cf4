// Package middleware implements the paper's Fig. 5 architecture: a
// visualization middleware that translates frontend requests into SQL
// queries, rewrites them with the MDP-based Query Rewriter so the total
// response time stays within a budget, answers them from the backend
// engine's posting lists, and returns binned visualization results.
//
// # The serving stack
//
// Server binds one dataset to one rewriter and serves it concurrently:
//
//   - a (data version, signature)-keyed LRU plan cache (plancache.go)
//     memoizes the ground-truth context and the rewriter's per-budget
//     decision; concurrent first requests for one shape may each build it,
//     and all of them keep the entry that was inserted first;
//   - an LRU result cache (resultcache.go) returns finished binned
//     responses for repeated (rewritten SQL, kind, grid, region, budget,
//     data version) shapes — the overlap a pan/zoom session generates. The
//     cache sits behind the ResultCache interface; internal/cluster
//     substitutes a peer-shared implementation through
//     ServerConfig.WrapResultCache;
//   - a server-scope engine.LookupCache shares index scans across
//     requests over the immutable dataset;
//   - admission control (admission.go) bounds concurrency with a FIFO wait
//     queue: freed slots go to the longest-waiting request, a waiter whose
//     deadline passes leaves the queue, and overload answers 429/503 +
//     Retry-After instead of queueing unboundedly.
//
// The plan and result caches, the session tracker, the prefetch marks and
// the containment index all sit on one small generic LRU (lru.go), each
// under its owner's mutex.
//
// Gateway (gateway.go) serves any number of datasets behind one HTTP
// surface: per-dataset Servers, every one built by NewGateway before it
// returns, one admission budget shared across datasets, and /datasets,
// /healthz, /metrics rollups with dataset="..." labels. Metrics
// (metrics.go) is the lock-free counter registry behind /metrics in both
// Prometheus text and JSON forms.
//
// # Determinism contract
//
// Every cache layer is deterministic: a cached response is bit-identical
// to what the cold path would produce — which is also why concurrent
// identical requests need no coordination: each computes the same bytes.
// Rewriting is a pure
// function of (context, budget) and all engine randomness derives from
// per-query/per-plan fingerprints. That is what lets the gateway promise
// byte-identity with standalone servers, and the cluster layer byte-
// identity with a single gateway (docs/ARCHITECTURE.md spells out the
// whole chain).
package middleware
