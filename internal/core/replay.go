package core

import "math/rand"

// Experience is one MDP transition (s, a, s′, r′) plus the termination flag
// and the next state's exploration mask (needed to mask invalid actions when
// computing the Bellman target).
type Experience struct {
	State        []float64
	Action       int
	NextState    []float64
	Reward       float64
	Done         bool
	NextExplored []bool
}

// Replay is a fixed-capacity FIFO experience buffer (the paper's replay
// memory M with capacity C, replaced FIFO when full). buf grows by append
// up to cap and rings from then on, so a policy that is only served — and
// never adds — holds no slots.
type Replay struct {
	cap  int
	buf  []Experience
	next int // the slot the next Add overwrites once buf is full
}

// NewReplay creates an empty replay memory with the given capacity.
func NewReplay(capacity int) *Replay {
	if capacity <= 0 {
		capacity = 1
	}
	return &Replay{cap: capacity}
}

// Add stores an experience, evicting the oldest when full.
func (r *Replay) Add(e Experience) {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % r.cap
}

// Len returns the number of stored experiences.
func (r *Replay) Len() int { return len(r.buf) }

// Cap returns the capacity.
func (r *Replay) Cap() int { return r.cap }

// Sample draws n experiences uniformly with replacement.
func (r *Replay) Sample(rng *rand.Rand, n int) []Experience {
	if len(r.buf) == 0 {
		return nil
	}
	out := make([]Experience, n)
	for i := range out {
		out[i] = r.buf[rng.Intn(len(r.buf))]
	}
	return out
}
