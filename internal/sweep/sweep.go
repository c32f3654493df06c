// Package sweep runs the independent points of an experiment sweep on a
// bounded worker pool. Every simulation in this repository is a
// self-contained deterministic engine, so sweep points can execute on
// parallel OS threads without perturbing each other's results; the only
// shared resource is the process-wide default tracer. Run hands each
// job its own fork of that tracer chain (trace.Fork), so the sinks
// consume every job's events inside the job, on the job's thread, and
// joins the forks back in job-index order once the pool drains. The
// joined sinks (and hence the printed TraceDigest, manifests and
// analyses) are byte-identical at any worker count, 1 included: every
// width takes the same fork/join path.
//
// Contract for jobs: job(i, tr) must build and run the i'th sweep point,
// installing tr in every engine it creates (via the app Config's Tracer
// field). tr is nil when the ambient default tracer already reaches
// those engines — when there is no default tracer, or when it cannot be
// forked and the jobs run sequentially — so jobs must pass it through
// unconditionally and never read trace.Default themselves. Jobs must
// not call Run recursively: a nested sweep would see no default tracer
// and its engines would trace into nothing.
package sweep

import (
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

var (
	mu      sync.Mutex
	workers = 1
)

// SetWorkers sets the worker-pool width used by subsequent Run calls
// (minimum 1; 1 means fully sequential). The cmd binaries wire this to
// the shared -parallel flag.
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	mu.Lock()
	workers = n
	mu.Unlock()
}

// Workers reports the current worker-pool width.
func Workers() int {
	mu.Lock()
	defer mu.Unlock()
	return workers
}

// Run executes jobs 0..n-1 and returns the lowest-indexed error, if any.
// When the default tracer chain is forkable (every built-in session sink
// is), each job traces into its own fork, the jobs are distributed over
// a pool of Workers() goroutines, and after the last job returns the
// forks are joined into the default chain in index order; every job
// runs, even after one fails. The default tracer is detached while the
// pool runs and restored before Run returns. When the chain cannot be
// forked, the jobs run in index order on the calling goroutine under
// the ambient default, stopping at the first error. Results must be
// written into index-addressed slots (no appends), so the rendered
// output is identical at any width.
func Run(n int, job func(i int, tr trace.Tracer) error) error {
	if n <= 0 {
		return nil
	}
	saved := trace.Default()
	forks := make([]trace.Tracer, n)
	for i := range forks {
		f, ok := trace.Fork(saved)
		if !ok {
			return sequential(n, job)
		}
		forks[i] = f
	}

	// Engines created by the jobs must reach only their job's fork, never
	// the shared chain the forks are joined into.
	trace.SetDefault(nil)
	defer trace.SetDefault(saved)

	w := Workers()
	if w > n {
		w = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = job(i, forks[i])
			}
		}()
	}
	wg.Wait()

	for i, f := range forks {
		trace.Join(saved, f)
		forks[i] = nil // release each job's sinks as they fold in
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sequential runs the jobs in index order on the caller, under the
// ambient default tracer.
func sequential(n int, job func(i int, tr trace.Tracer) error) error {
	for i := 0; i < n; i++ {
		if err := job(i, nil); err != nil {
			return err
		}
	}
	return nil
}
