package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// RunIndexed executes fn(0..n-1) on a worker pool of GOMAXPROCS goroutines;
// with one processor (or n == 1) it runs inline with zero goroutine
// overhead. fn must only write state owned by its index — under that
// contract the results are identical at any GOMAXPROCS. When several calls
// fail, the error of the lowest index is returned, so error reporting is
// deterministic too.
func RunIndexed(n int, fn func(int) error) error {
	if n <= 0 {
		return nil
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		errs = make([]error, n)
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
