package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReplayFIFOEviction(t *testing.T) {
	r := NewReplay(3)
	for i := 0; i < 5; i++ {
		r.Add(Experience{Action: i})
	}
	if r.Len() != 3 || r.Cap() != 3 {
		t.Fatalf("Len=%d Cap=%d", r.Len(), r.Cap())
	}
	// Oldest (actions 0, 1) must be gone.
	seen := map[int]bool{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		for _, e := range r.Sample(rng, 3) {
			seen[e.Action] = true
		}
	}
	if seen[0] || seen[1] {
		t.Error("evicted experiences still sampled")
	}
	for a := 2; a <= 4; a++ {
		if !seen[a] {
			t.Errorf("action %d never sampled", a)
		}
	}
}

func TestReplaySampleEmpty(t *testing.T) {
	r := NewReplay(4)
	if got := r.Sample(rand.New(rand.NewSource(1)), 2); got != nil {
		t.Errorf("sample of empty replay = %v", got)
	}
}

// TestReplayLenNeverExceedsCap is a property over random add/sample traces.
func TestReplayLenNeverExceedsCap(t *testing.T) {
	prop := func(capRaw uint8, adds uint8) bool {
		c := int(capRaw)%20 + 1
		r := NewReplay(c)
		for i := 0; i < int(adds); i++ {
			r.Add(Experience{Action: i})
			if r.Len() > c {
				return false
			}
		}
		want := int(adds)
		if want > c {
			want = c
		}
		return r.Len() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayZeroCapacityClamped(t *testing.T) {
	r := NewReplay(0)
	r.Add(Experience{Action: 9})
	if r.Len() != 1 || r.Cap() != 1 {
		t.Errorf("Len=%d Cap=%d", r.Len(), r.Cap())
	}
}

// TestReplayEmptyHoldsNoSlots: a replay memory that is never added to — a
// served policy's — holds no experience slots, whatever its capacity.
func TestReplayEmptyHoldsNoSlots(t *testing.T) {
	r := NewReplay(20000)
	if cap(r.buf) != 0 || r.Len() != 0 || r.Cap() != 20000 {
		t.Errorf("fresh replay: %d slots, Len=%d Cap=%d; want 0 slots, 0, 20000", cap(r.buf), r.Len(), r.Cap())
	}
}

// preallocRing is the replay memory as a ring over all cap slots allocated
// up front: the reference the growing buffer must match draw for draw.
type preallocRing struct {
	buf         []Experience
	next, count int
}

func (r *preallocRing) add(e Experience) {
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
}

func (r *preallocRing) sample(rng *rand.Rand, n int) []Experience {
	out := make([]Experience, n)
	for i := range out {
		out[i] = r.buf[rng.Intn(r.count)]
	}
	return out
}

// TestReplayMatchesPreallocatedRing: a seeded Add/Sample run past capacity
// draws exactly what the preallocated ring draws, so training is unchanged.
func TestReplayMatchesPreallocatedRing(t *testing.T) {
	const capacity = 37
	r := NewReplay(capacity)
	ref := &preallocRing{buf: make([]Experience, capacity)}
	rngA, rngB := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	for i := 0; i < 5*capacity; i++ {
		r.Add(Experience{Action: i})
		ref.add(Experience{Action: i})
		if r.Len() != ref.count {
			t.Fatalf("after %d adds: Len=%d, ring holds %d", i+1, r.Len(), ref.count)
		}
		got, want := r.Sample(rngA, 4), ref.sample(rngB, 4)
		for j := range want {
			if got[j].Action != want[j].Action {
				t.Fatalf("after %d adds, draw %d: action %d, ring draws %d", i+1, j, got[j].Action, want[j].Action)
			}
		}
	}
}
