package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
)

// TrialRunner executes the paper's best-of-N protocol — N independent
// routing trials, each a full reverse-traversal restart from a
// different random initial mapping (§IV-C2) — across a bounded worker
// pool. It is the only best-of-N routing loop: Compile is
// TrialRunner{Workers: 1}, the registry's "sabre" router is the same
// value, and the pipeline's RoutePass runs it with its own worker
// bound.
//
// All trials share one Prepared (widened/reversed circuits and the
// device's cached distance matrices) read-only; nothing is locked on
// the routing hot path. Trial t always uses seed Options.Seed+t and
// results are collected by trial index, then the winner is selected by
// fewest added gates, ties broken by decomposed depth, then by lowest
// seed — so the outcome is byte-identical at any worker count.
//
// With Patience > 0 the runner is adaptive: it stops fanning out new
// seeds once Patience consecutive trials (in seed order) have failed
// to improve the incumbent best. The surviving population is the
// shortest prefix of the trial sequence satisfying the stop rule — a
// pure function of per-trial results, never of scheduling — so the
// selected winner is still byte-identical at any worker count, and
// equals what exhaustive selection over that same prefix would pick.
// Result.TrialsRun reports the population actually selected over.
//
// The zero value is ready to use and implements Router.
type TrialRunner struct {
	// Trials is the number of independent seeds (0 = Options.Trials,
	// which defaults to the paper's 5). In adaptive mode it is the
	// upper bound on the population.
	Trials int

	// Workers bounds the pool (0 = min(Trials, GOMAXPROCS)). One
	// worker runs the trials in seed order on the caller's goroutine,
	// so a trial panic propagates to the caller unchanged.
	Workers int

	// Patience, when positive, enables adaptive early exit: feeding
	// stops after Patience consecutive non-improving trials. Workers
	// already past the stop point may finish extra trials; those are
	// excluded from selection to keep the outcome deterministic.
	Patience int
}

// Name implements Router.
func (TrialRunner) Name() string { return "sabre" }

// Route implements Router: it runs the trials and returns the
// deterministic winner. Cancellation is honored at trial boundaries
// and inside each trial's SWAP loop at round granularity; a cancelled
// run returns ctx.Err(). Result.Elapsed covers preparation and every
// trial (Table II's t_op).
func (tr TrialRunner) Route(ctx context.Context, circ *circuit.Circuit, dev *arch.Device, opts Options) (*Result, error) {
	//sabre:nondeterm-ok wall-clock elapsed metric; never feeds routing decisions
	start := time.Now()
	results, depths, err := tr.RunTrials(ctx, circ, dev, opts)
	if err != nil {
		return nil, err
	}
	best, err := SelectBest(results, depths)
	if err != nil {
		return nil, err
	}
	best.TrialsRun = len(results)
	best.Elapsed = time.Since(start)
	return best, nil
}

// RunTrials runs the trials and returns all surviving results indexed
// by trial (seed offset), with their decomposed depths. In adaptive
// mode (Patience > 0) the slices are truncated to the deterministic
// early-exit population; otherwise their length is the full trial
// count. Exposed so studies and tests can inspect the whole trial
// population, not just the winner.
func (tr TrialRunner) RunTrials(ctx context.Context, circ *circuit.Circuit, dev *arch.Device, opts Options) ([]*Result, []int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, err := Prepare(circ, dev, opts)
	if err != nil {
		return nil, nil, err
	}
	n := tr.Trials
	if n <= 0 {
		n = p.opts.Trials
	}
	workers := tr.Workers
	if workers <= 0 || workers > n {
		workers = n
	}
	if max := runtime.GOMAXPROCS(0); tr.Workers <= 0 && workers > max {
		workers = max
	}

	results := make([]*Result, n)
	depths := make([]int, n)
	if workers == 1 {
		return tr.runOnCaller(ctx, p, results, depths)
	}
	return tr.runPool(ctx, p, workers, results, depths)
}

// runPool runs the trials on workers goroutines, each with its own
// Scratch, fed in seed order until the adaptive stop point (or all n
// trials) has been handed out.
func (tr TrialRunner) runPool(ctx context.Context, p *Prepared, workers int, results []*Result, depths []int) ([]*Result, []int, error) {
	n := len(results)
	// A panic in a trial worker must not unwind its goroutine — that
	// would kill the whole process, not just this job. The first panic
	// is captured (with the panicking goroutine's stack) and re-raised
	// on the caller's goroutine after the pool drains, where the batch
	// engine's recover turns it into a failed job.
	var (
		panicOnce sync.Once
		panicVal  atomic.Value
	)
	done := ctx.Done() // read once; the feeder selects on it per trial
	trials := make(chan int)
	// completions is buffered to n so workers never block reporting;
	// the feeder drains it opportunistically to learn the early-exit
	// point.
	completions := make(chan int, n)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// One Scratch per worker: every trial this worker runs
			// reuses the same warm buffers, and no mutable state is
			// shared across the pool (the shared Prepared is read-only).
			scratch := NewScratch()
			for trial := range trials {
				// RunTrialCtx polls ctx inside the SWAP loop at round
				// granularity, so cancellation kills even one enormous
				// in-flight trial promptly — the run as a whole then
				// fails with ctx.Err() after the pool drains. A
				// cancelled trial must NOT report completion: its
				// results slot is nil, and the prefix watcher walking
				// a "completed" nil entry would dereference it. The
				// feeder still terminates via its done case.
				res, depth, err := runTrialRecover(&panicOnce, &panicVal, p, ctx, trial, scratch)
				if err != nil {
					continue
				}
				results[trial], depths[trial] = res, depth
				completions <- trial
			}
		}()
	}

	// stop is the known population bound: n until the adaptive rule
	// fires on the contiguous completed prefix, then the deterministic
	// early-exit point. Feeding never stops before every trial below
	// the final stop point has been fed (the rule can only fire once
	// they completed), so the surviving prefix is always fully present.
	stop := n
	completed := make([]bool, n)
	prefix := newPrefixWatcher(results, depths, tr.Patience)
	onCompletion := func(trial int) {
		completed[trial] = true
		if s, ok := prefix.advance(completed); ok && s < stop {
			stop = s
		}
	}

feed:
	for trial := 0; trial < n && trial < stop; trial++ {
		for {
			select {
			case trials <- trial:
				continue feed
			case t := <-completions:
				onCompletion(t)
				if trial >= stop {
					break feed
				}
			case <-done:
				break feed
			}
		}
	}
	close(trials)
	wg.Wait()
	if pv := panicVal.Load(); pv != nil {
		// Re-raise the captured trial panic on this goroutine: the
		// batch engine's recover converts it into a failed job while
		// the daemon keeps serving. Re-panicking (rather than
		// returning an error) keeps panic semantics for direct
		// library callers, with the original stack in the value.
		panic(pv)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// Recompute the stop point over the final population. Workers may
	// have finished trials past it; truncating to the recomputed point
	// keeps the result a pure function of per-trial outcomes.
	if tr.Patience > 0 {
		final := newPrefixWatcher(results, depths, tr.Patience)
		pop := n
		if s, ok := final.advanceAll(); ok {
			pop = s
		}
		results, depths = results[:pop], depths[:pop]
	}
	return results, depths, nil
}

// runOnCaller is the one-worker pool: the trials run in seed order on
// the caller's goroutine with one Scratch, stopping at the first
// cancellation or where the adaptive rule fires. Without a goroutine
// there is nothing to fence, so a trial panic unwinds into the caller
// with the trial's own stack.
func (tr TrialRunner) runOnCaller(ctx context.Context, p *Prepared, results []*Result, depths []int) ([]*Result, []int, error) {
	s := NewScratch()
	prefix := newPrefixWatcher(results, depths, tr.Patience)
	for trial := range results {
		res, depth, err := p.RunTrialCtx(ctx, trial, s)
		if err != nil {
			return nil, nil, err
		}
		results[trial], depths[trial] = res, depth
		if pop, fired := prefix.step(trial); fired {
			return results[:pop], depths[:pop], nil
		}
	}
	return results, depths, nil
}

// runTrialRecover runs one pool trial with a panic fence: a panicking
// trial is recorded (first panic wins, with the panicking goroutine's
// stack) and reported as a failed trial so the worker keeps draining
// the feed — with every worker parked behind an unrecovered panic the
// feeder would deadlock. RunTrials re-raises the captured panic once
// the pool drains.
func runTrialRecover(once *sync.Once, pv *atomic.Value, p *Prepared, ctx context.Context, trial int, scratch *Scratch) (res *Result, depth int, err error) {
	defer func() {
		if r := recover(); r != nil {
			once.Do(func() {
				pv.Store(fmt.Sprintf("core: trial %d panic: %v\n%s", trial, r, debug.Stack()))
			})
			res, depth, err = nil, 0, fmt.Errorf("core: trial %d panicked", trial)
		}
	}()
	return p.RunTrialCtx(ctx, trial, scratch)
}

// prefixWatcher evaluates the adaptive stop rule incrementally over
// the contiguous completed prefix of a trial population, in strict
// trial order: track the incumbent best (per BetterTrial) and stop
// after `patience` consecutive trials that failed to improve it.
type prefixWatcher struct {
	results  []*Result
	depths   []int
	patience int

	next     int // first trial not yet evaluated
	best     int // incumbent trial index (-1 before any)
	sinceImp int // consecutive non-improving trials
}

func newPrefixWatcher(results []*Result, depths []int, patience int) prefixWatcher {
	return prefixWatcher{results: results, depths: depths, patience: patience, best: -1}
}

// step evaluates one completed trial; it returns the population size
// (trial+1) and true when the stop rule fires at that trial.
func (w *prefixWatcher) step(trial int) (int, bool) {
	if w.best < 0 || BetterTrial(w.results[trial], w.depths[trial], trial,
		w.results[w.best], w.depths[w.best], w.best) {
		w.best = trial
		w.sinceImp = 0
	} else {
		w.sinceImp++
	}
	if w.patience > 0 && w.sinceImp >= w.patience {
		return trial + 1, true
	}
	return trial + 1, false
}

// advance consumes newly completed trials in order and reports the
// stop point once the rule fires on the contiguous prefix.
func (w *prefixWatcher) advance(completed []bool) (int, bool) {
	for w.next < len(completed) && completed[w.next] {
		pop, fired := w.step(w.next)
		w.next++
		if fired {
			return pop, true
		}
	}
	return 0, false
}

// advanceAll walks the full non-nil prefix (used after the pool
// drained, when every fed trial has completed).
func (w *prefixWatcher) advanceAll() (int, bool) {
	for w.next < len(w.results) && w.results[w.next] != nil {
		pop, fired := w.step(w.next)
		w.next++
		if fired {
			return pop, true
		}
	}
	return 0, false
}
