package core

import (
	"errors"
	"runtime"
	"testing"
)

// TestRunIndexed: pool behavior — covers all indices exactly once at any
// GOMAXPROCS, and reports the lowest-index error deterministically.
func TestRunIndexed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		hits := make([]int, 100)
		if err := RunIndexed(len(hits), func(i int) error {
			hits[i]++
			return nil
		}); err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("procs=%d: index %d ran %d times", procs, i, h)
			}
		}

		// The inline path bails at the first failure, the pool reports the
		// lowest-index one: both are index 3's.
		errLow, errHigh := errors.New("low"), errors.New("high")
		err := RunIndexed(10, func(i int) error {
			switch i {
			case 3:
				return errLow
			case 8:
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("procs=%d: err = %v, want lowest-index error %v", procs, err, errLow)
		}
	}
}
