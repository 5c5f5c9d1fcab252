package exp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The experiment harness is parallel but deterministic: each experiment is
// decomposed into pure cell functions that build every stateful object they
// need (worlds, policies, engines) from seeds derived inside the cell, so a
// cell's result is a pure function of (Options, cell index) and independent
// of goroutine scheduling. The one thing cells share is read-only: trained
// leave-one-out families, which a cell only forks onto its own world (see
// familyMemo). Cells run on a bounded worker pool shared across
// experiments; results are merged in submission order, so the rendered
// tables are byte-identical to a serial run.

// pool is a counting semaphore bounding concurrently running work units
// (cells, plus whole experiments between their fan-out phases). It also
// carries the pass's leave-one-out family memo, so families are shared by
// every experiment of one Run or RunAll call and by nothing else.
type pool struct {
	tokens   chan struct{}
	families familyMemo
}

// newPool builds a pool admitting n concurrent work units (n <= 0 selects
// GOMAXPROCS).
func newPool(n int) *pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &pool{tokens: make(chan struct{}, n), families: familyMemo{calls: make(map[familyKey]*familyCall)}}
}

func (p *pool) acquire() { p.tokens <- struct{}{} }
func (p *pool) release() { <-p.tokens }

// addBusy accumulates occupied-worker time for RunAll's per-experiment
// accounting; a no-op outside RunAll.
func (o Options) addBusy(d time.Duration) {
	if o.busy != nil {
		atomic.AddInt64(o.busy, int64(d))
	}
}

// lend gives the caller's pool token back while wait blocks and takes it
// again afterwards; the window is subtracted from the experiment's busy
// time, since the token was doing other work.
func (o Options) lend(wait func()) {
	o.pool.release()
	start := time.Now()
	wait()
	o.pool.acquire()
	o.addBusy(-time.Since(start))
}

// runCells evaluates f(0..n-1) on the options' worker pool and returns the
// results in index order; the first error wins. Each cell must be pure in
// the sense above — in particular it must not share a sim.World or an engine
// with another cell. The calling experiment, if it holds a pool token (it
// does when entered through Run or RunAll), lends it to the cells while it
// waits, so Parallel=1 runs exactly one unit of work at a time and the
// harness never deadlocks on nested waits. Cells must not call runCells.
func runCells[T any](o Options, n int, f func(int) (T, error)) ([]T, error) {
	if o.pool == nil {
		o = o.withDefaults()
	}
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o.pool.acquire()
			defer o.pool.release()
			start := time.Now()
			defer func() { o.addBusy(time.Since(start)) }()
			out[i], errs[i] = f(i)
		}(i)
	}
	if o.held {
		o.lend(wg.Wait)
	} else {
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunOutcome is the result of one experiment inside RunAll. Elapsed is the
// wall-clock the experiment's own work occupied a pool worker — its serial
// phases plus its cells, excluding time its tokens were lent out while it
// waited on its cells or on a family another cell was training — so the
// per-experiment numbers reflect relative cost
// even though all experiments' spans overlap on the shared pool.
type RunOutcome struct {
	ID      string
	Table   *Table
	Err     error
	Elapsed time.Duration
}

// RunAll executes the given experiments concurrently on one shared worker
// pool and returns the outcomes in the input order. Because every
// experiment's cells are pure, the tables are identical to what sequential
// Run calls would produce, for any Parallel setting.
func RunAll(ids []string, opts Options) []RunOutcome {
	opts = opts.withDefaults() // share one pool across all experiments
	out := make([]RunOutcome, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			o := opts
			var busy int64
			o.busy = &busy
			o.pool.acquire()
			defer o.pool.release()
			start := time.Now()
			table, err := runHeld(id, o)
			elapsed := time.Since(start) + time.Duration(atomic.LoadInt64(&busy))
			out[i] = RunOutcome{ID: id, Table: table, Err: err, Elapsed: elapsed}
		}(i, id)
	}
	wg.Wait()
	return out
}
