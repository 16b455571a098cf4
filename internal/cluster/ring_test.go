package cluster

import "testing"

// splitmix64 is a tiny deterministic key-stream generator for distribution
// tests (independent of the ring's own hash family).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestRingDistributionBound: at the default 64 vkeys per replica, no
// replica owns more than 2× its fair share of a large uniform key space —
// the bound the routing tier's load balance rests on.
func TestRingDistributionBound(t *testing.T) {
	const keys = 20_000
	for _, replicas := range []int{2, 3, 4, 8} {
		ring := NewRing(replicas)
		counts := make([]int, replicas)
		state := uint64(42)
		for i := 0; i < keys; i++ {
			counts[ring.Owner(splitmix64(&state))]++
		}
		fair := keys / replicas
		for rep, c := range counts {
			if c > 2*fair {
				t.Errorf("replicas=%d: replica %d owns %d keys, > 2x fair share %d", replicas, rep, c, fair)
			}
			if c == 0 {
				t.Errorf("replicas=%d: replica %d owns nothing", replicas, rep)
			}
		}
	}
}

// TestRingDeterministic: ownership is a pure function of (replicas, vnodes,
// key) — two independently built rings agree on every key, which is what
// lets every router and every replica compute the same owner.
func TestRingDeterministic(t *testing.T) {
	a := NewRing(5)
	b := NewRing(5)
	state := uint64(7)
	for i := 0; i < 5_000; i++ {
		k := splitmix64(&state)
		if ao, bo := a.Owner(k), b.Owner(k); ao != bo {
			t.Fatalf("key %x: ring A says %d, ring B says %d", k, ao, bo)
		}
	}
}

// TestRingSequence: the failover sequence starts at the owner, covers every
// replica exactly once, and is deterministic per key.
func TestRingSequence(t *testing.T) {
	ring := NewRing(4)
	state := uint64(99)
	for i := 0; i < 1_000; i++ {
		k := splitmix64(&state)
		seq := ring.Sequence(k)
		if len(seq) != 4 {
			t.Fatalf("key %x: sequence %v has %d replicas, want 4", k, seq, len(seq))
		}
		if seq[0] != ring.Owner(k) {
			t.Fatalf("key %x: sequence starts at %d, owner is %d", k, seq[0], ring.Owner(k))
		}
		seen := make(map[int]bool)
		for _, r := range seq {
			if seen[r] {
				t.Fatalf("key %x: sequence %v repeats replica %d", k, seq, r)
			}
			seen[r] = true
		}
		if got := ring.Sequence(k); len(got) != len(seq) || got[0] != seq[0] || got[1] != seq[1] {
			t.Fatalf("key %x: sequence not deterministic: %v then %v", k, seq, got)
		}
	}
}

// TestRingDegenerate: a one-replica ring owns everything, and invalid sizes
// clamp instead of breaking.
func TestRingDegenerate(t *testing.T) {
	ring := NewRing(1)
	state := uint64(3)
	for i := 0; i < 100; i++ {
		if owner := ring.Owner(splitmix64(&state)); owner != 0 {
			t.Fatalf("single-replica ring routed to %d", owner)
		}
	}
	if NewRing(0).Replicas() != 1 {
		t.Error("replicas < 1 should clamp to 1")
	}
}

// TestRingOwnerAmongExclusion: restricting ownership to a subset (what the
// router does when a replica leaves the live set) moves ONLY the keys the
// excluded replica owned — everyone else's keys stay put — and the moved
// fraction stays near 1/N. This is the cheap-membership-change property the
// router relies on: no ring rebuild, no cluster-wide cache cold start.
func TestRingOwnerAmongExclusion(t *testing.T) {
	const keys = 20_000
	const replicas = 4
	ring := NewRing(replicas)
	const excluded = 2
	ok := func(r int) bool { return r != excluded }
	moved := 0
	state := uint64(2026)
	for i := 0; i < keys; i++ {
		k := splitmix64(&state)
		full := ring.Owner(k)
		among, found := ring.OwnerAmong(k, ok)
		if !found {
			t.Fatalf("key %x: no owner among 3 live replicas", k)
		}
		if among == excluded {
			t.Fatalf("key %x: OwnerAmong returned the excluded replica", k)
		}
		if full != excluded {
			if among != full {
				t.Fatalf("key %x: owner %d not excluded, but OwnerAmong moved it to %d", k, full, among)
			}
			continue
		}
		moved++
		// And the key comes home the moment the replica passes again.
		if back, _ := ring.OwnerAmong(k, func(int) bool { return true }); back != full {
			t.Fatalf("key %x: all-pass OwnerAmong %d != Owner %d", k, back, full)
		}
	}
	if moved == 0 {
		t.Error("excluding a replica moved nothing; it owned no keys")
	}
	if moved > 2*keys/replicas {
		t.Errorf("excluding 1 of %d replicas moved %d/%d keys, want <= %d", replicas, moved, keys, 2*keys/replicas)
	}
	if rep, found := ring.OwnerAmong(1, func(int) bool { return false }); found || rep != -1 {
		t.Errorf("empty live set: got (%d, %v), want (-1, false)", rep, found)
	}
}

// TestRingMovementOnScale: growing the cluster by one replica moves only a
// bounded fraction of the key space — the consistent-hashing property that
// keeps a scaling event from cold-starting every cache.
func TestRingMovementOnScale(t *testing.T) {
	const keys = 20_000
	small := NewRing(4)
	big := NewRing(5)
	moved := 0
	state := uint64(123)
	for i := 0; i < keys; i++ {
		k := splitmix64(&state)
		so, bo := small.Owner(k), big.Owner(k)
		if so != bo {
			moved++
			// Keys may only move to the new replica or stay put; a key
			// hopping between two old replicas would break the
			// "only ~1/N reshuffles" contract.
			if bo != 4 {
				t.Fatalf("key %x moved between pre-existing replicas: %d -> %d", k, so, bo)
			}
		}
	}
	// Expect ~1/5 of keys to move; allow a 2x margin for vnode granularity.
	if moved > 2*keys/5 {
		t.Errorf("scaling 4->5 replicas moved %d/%d keys, want <= %d", moved, keys, 2*keys/5)
	}
	if moved == 0 {
		t.Error("scaling 4->5 replicas moved nothing; new replica owns no keys")
	}
}
