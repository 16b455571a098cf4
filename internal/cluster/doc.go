// Package cluster scales the Maliva serving layer past one gateway: a
// replica-aware routing tier in front of N middleware.Gateway replicas,
// with a groupcache-style peer protocol that turns N private result caches
// into one cluster-wide cache.
//
// The pieces, front to back:
//
//   - Ring — a consistent-hash ring (64 virtual nodes per replica by
//     default) mapping every result-cache key to exactly one owning
//     replica, with a deterministic failover sequence per key.
//   - Router — the HTTP routing tier in front of in-process replicas. It
//     resolves each /viz request to its server-normalized ResultKey
//     (through a ready replica's plan path) and hashes that — the same key
//     space peer-cache ownership uses, so the routed replica owns its key;
//     a request that can't be keyed (unparseable, rejected, unknown
//     dataset) is routed by the hash of its dataset and body bytes. The
//     router keeps no health view: each request reads every node's own state, tries the
//     live replicas of the key's ring sequence first, and fails over when a
//     replica refuses with its lifecycle sentinel. Only when no replica at
//     all serves does the client see a 503 (with Retry-After: 1).
//   - Node — one replica: a complete gateway (its own servers, plan
//     caches, lookup caches, admission pool) whose per-dataset result
//     caches are wrapped with the peer-shared cache, plus the /cluster
//     fetch and fill endpoints other replicas talk to.
//   - peerCache — the middleware.ResultCache wrapper: local miss → fetch
//     from the key's owner (single-flight per key, hedged against the next
//     ring replica when the owner is slow), peer error → local compute (a
//     budget never waits on a dead peer), and computed results a replica
//     doesn't own are offered to their owner asynchronously, so one cold
//     execution fills the whole cluster.
//   - PeerClient — the peer transport: JSON over HTTP between
//     one-process-per-replica deployments (maliva-server -peer, the shipped
//     cluster shape), direct pointer exchange between the in-process
//     replicas New builds for tests and the benchmark's routing trace.
//
// Determinism is the load-bearing invariant, inherited from the layers
// below (see docs/ARCHITECTURE.md): every replica computes bit-identical
// responses for equal keys, so an R-replica cluster's responses are
// byte-identical to a single standalone gateway's no matter which replica
// served from which cache — pinned by TestClusterByteIdenticalToGateway.
package cluster
