package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/workloads"
)

func adaptiveOptions() Options {
	opts := DefaultOptions()
	opts.Seed = 11
	return opts
}

func TestTrialRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := bigRandomCX(16, 120, 11)
	opts := DefaultOptions()
	opts.Seed = 42

	var ref *Result
	for _, workers := range []int{1, 2, 3, 8} {
		tr := TrialRunner{Trials: 8, Workers: workers}
		res, err := tr.Route(context.Background(), circ, dev, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
		} else if !res.Circuit.Equal(ref.Circuit) {
			t.Fatalf("workers=%d produced a different routed circuit than workers=1", workers)
		}
	}
}

// TestAdaptiveDeterministicAtAnyWorkerCount is the load-bearing
// property: the early-exit population and the selected winner are pure
// functions of the per-trial results, never of scheduling.
func TestAdaptiveDeterministicAtAnyWorkerCount(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(8)
	opts := adaptiveOptions()

	ref, err := TrialRunner{Trials: 16, Patience: 3, Workers: 1}.Route(context.Background(), circ, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.TrialsRun >= 16 {
		t.Logf("adaptive rule never fired (TrialsRun = %d); property still checked", ref.TrialsRun)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := TrialRunner{Trials: 16, Patience: 3, Workers: workers}.Route(context.Background(), circ, dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.TrialsRun != ref.TrialsRun {
			t.Fatalf("workers=%d: TrialsRun %d != %d", workers, got.TrialsRun, ref.TrialsRun)
		}
		if !got.Circuit.Equal(ref.Circuit) {
			t.Fatalf("workers=%d: selected a different circuit", workers)
		}
		if got.AddedGates != ref.AddedGates {
			t.Fatalf("workers=%d: AddedGates %d != %d", workers, got.AddedGates, ref.AddedGates)
		}
	}
}

// TestAdaptiveMatchesExhaustivePrefix asserts the acceptance property:
// adaptive selection never picks a different winner than exhaustive
// selection over the same completed prefix.
func TestAdaptiveMatchesExhaustivePrefix(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(7)
	opts := adaptiveOptions()

	aResults, aDepths, err := TrialRunner{Trials: 20, Patience: 2, Workers: 4}.RunTrials(context.Background(), circ, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	pop := len(aResults)
	if pop == 0 || pop > 20 {
		t.Fatalf("adaptive population = %d", pop)
	}
	adaptiveBest, err := SelectBest(aResults, aDepths)
	if err != nil {
		t.Fatal(err)
	}

	eResults, eDepths, err := TrialRunner{Trials: 20, Workers: 4}.RunTrials(context.Background(), circ, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	exhaustiveBest, err := SelectBest(eResults[:pop], eDepths[:pop])
	if err != nil {
		t.Fatal(err)
	}
	if !adaptiveBest.Circuit.Equal(exhaustiveBest.Circuit) {
		t.Fatal("adaptive winner differs from exhaustive selection over the same prefix")
	}
	// And the trial results themselves agree index by index: the same
	// seeds ran in both modes.
	for i := 0; i < pop; i++ {
		if aResults[i].AddedGates != eResults[i].AddedGates {
			t.Fatalf("trial %d: adaptive cost %d != exhaustive cost %d", i, aResults[i].AddedGates, eResults[i].AddedGates)
		}
	}
}

func TestAdaptiveReportsActualTrialCount(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(6)
	opts := adaptiveOptions()

	res, err := TrialRunner{Trials: 32, Patience: 1, Workers: 1}.Route(context.Background(), circ, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Patience 1 stops at the first non-improving trial; with 32 seeds
	// on a small circuit it is (deterministically) far below the cap.
	if res.TrialsRun >= 32 {
		t.Fatalf("TrialsRun = %d, expected early exit below the 32-trial cap", res.TrialsRun)
	}
	if res.TrialsRun < 2 {
		t.Fatalf("TrialsRun = %d, the rule needs at least two trials to fire", res.TrialsRun)
	}
}

// panicAfterCtx is a context whose Done panics from its (after+1)-th
// call on. Every traversal calls Done once when it starts, so the
// panic fires inside a trial's routing.
type panicAfterCtx struct {
	context.Context
	after int64
	calls atomic.Int64
}

func (c *panicAfterCtx) Done() <-chan struct{} {
	if c.calls.Add(1) > c.after {
		panic("injected trial panic")
	}
	return c.Context.Done()
}

// TestTrialPanicReachesCaller: a panic inside a trial reaches the
// caller of Compile, on the caller's goroutine with the panicking
// trial's frames still on the stack, and the pool re-raises a worker's
// panic with that worker's stack in the value instead of losing it or
// deadlocking.
func TestTrialPanicReachesCaller(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(8)
	for _, tc := range []struct {
		name  string
		route func(ctx context.Context) (*Result, error)
	}{
		{"compile", func(ctx context.Context) (*Result, error) {
			return CompileContext(ctx, circ, dev, DefaultOptions())
		}},
		{"pool", func(ctx context.Context) (*Result, error) {
			return TrialRunner{Trials: 4, Workers: 2}.Route(ctx, circ, dev, DefaultOptions())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The fourth Done call is the second trial's first traversal
			// on the caller (three traversals per trial), and a trial
			// traversal in the pool (the feeder calls Done once).
			ctx := &panicAfterCtx{Context: context.Background(), after: 3}
			var recovered any
			var stack string
			func() {
				defer func() {
					recovered = recover()
					stack = string(debug.Stack())
				}()
				_, _ = tc.route(ctx)
			}()
			if recovered == nil {
				t.Fatal("trial panic did not reach the caller")
			}
			text := fmt.Sprint(recovered) + "\n" + stack
			if !strings.Contains(text, "injected trial panic") {
				t.Fatalf("panic value lost: %v", recovered)
			}
			if !strings.Contains(text, "RunTrialCtx") {
				t.Fatalf("panic carries no trial stack:\n%s", text)
			}
		})
	}
}
