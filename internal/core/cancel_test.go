package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/mapping"
	"repro/internal/workloads"
)

// bigRandomCX builds a CX-heavy random circuit — large enough that a
// full trial takes many SWAP rounds, so the tests below can observe
// the difference between round-granular and trial-granular
// cancellation.
func bigRandomCX(n, gates int, seed int64) *circuit.Circuit {
	c := circuit.New(n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < gates; i++ {
		a := rng.Intn(n)
		b := rng.Intn(n - 1)
		if b >= a {
			b++
		}
		c.Append(circuit.CX(a, b))
	}
	return c
}

// TestRunContextCancelledBeforeStart: a pre-cancelled context kills the
// traversal at its first round; no partial circuit escapes.
func TestRunContextCancelledBeforeStart(t *testing.T) {
	dev := arch.Grid(4, 5)
	circ := bigRandomCX(20, 10_000, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	pr := NewPassRunner(circ, dev, DefaultOptions())
	res, err := pr.RunContext(ctx, mapping.Identity(20), rand.New(rand.NewSource(1)), nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Circuit != nil {
		t.Fatal("cancelled traversal leaked a partial circuit")
	}
}

// TestTrialCancellationRoundGranularity is the intra-trial-cancellation
// regression test: a 10k-gate single trial on a sparse device takes a
// long sequence of SWAP rounds (hundreds of milliseconds), but once
// cancelled mid-flight it must return within one round — microseconds,
// asserted here with a generous CI-safe bound that a trial-boundary-
// only check (which would first finish the whole traversal) cannot
// meet.
func TestTrialCancellationRoundGranularity(t *testing.T) {
	dev := arch.Grid(4, 5)
	circ := bigRandomCX(20, 10_000, 7)
	p, err := Prepare(circ, dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Calibrate: one uncancelled trial, to prove the workload is slow
	// enough for the race below to be meaningful.
	start := time.Now()
	if res, _, err := p.RunTrialCtx(context.Background(), 0, nil); err != nil || res == nil {
		t.Fatalf("uncancelled trial failed: %v", err)
	}
	full := time.Since(start)
	if full < 20*time.Millisecond {
		t.Skipf("workload too fast (%v) to observe mid-trial cancellation", full)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := p.RunTrialCtx(ctx, 0, nil)
		done <- err
	}()
	time.Sleep(full / 4) // let the trial get well into its SWAP loop
	cancel()
	cancelled := time.Now()

	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled trial never returned")
	}
	// One SWAP round on this workload is microseconds; even a heavily
	// loaded CI machine finishes the in-flight round well inside this
	// bound, while completing the remaining ~3/4 of the traversal (plus
	// two more traversals of the trial) would blow far past it.
	if lag := time.Since(cancelled); lag > full/2+50*time.Millisecond {
		t.Fatalf("cancelled trial took %v to stop (full trial %v); cancellation is not round-granular", lag, full)
	}
}

// TestTrialRunnerCancellation: a pre-cancelled context fails the run.
func TestTrialRunnerCancellation(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := TrialRunner{Trials: 4}
	if _, err := tr.Route(ctx, circ, dev, DefaultOptions()); err == nil {
		t.Fatal("expected cancellation error")
	}
}

// TestTrialRunnerCancelMidRun is the regression test for the
// cancelled-trial completion bug: a worker whose RunTrialCtx was
// cancelled leaves results[trial] nil, and reporting that trial as
// completed made the prefix watcher dereference the nil result
// (panic: BetterTrial on a nil *Result). The runner must instead
// return ctx.Err() cleanly — this test panicked deterministically
// before the fix. Patience > 0 keeps the adaptive watcher active;
// the plain watcher path is covered by the same cancel.
func TestTrialRunnerCancelMidRun(t *testing.T) {
	circ := bigRandomCX(20, 6000, 3)
	dev := arch.IBMQ20Tokyo()
	opts := DefaultOptions()

	for _, patience := range []int{0, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		tr := TrialRunner{Trials: 8, Workers: 2, Patience: patience}
		done := make(chan error, 1)
		go func() {
			_, err := tr.Route(ctx, circ, dev, opts)
			done <- err
		}()
		time.Sleep(5 * time.Millisecond) // let trials get in flight
		cancel()
		select {
		case err := <-done:
			if err != context.Canceled {
				t.Fatalf("patience=%d: err = %v, want context.Canceled", patience, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("patience=%d: cancelled run never returned", patience)
		}
	}
}

// TestRunTrialsCancelMidFeed is the regression test for the nil-hole
// panic: cancelling while trials are still being fed must return a
// clean ctx.Err(), not panic on a partially-filled results slice.
func TestRunTrialsCancelMidFeed(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(16) // big enough that trials outlive the cancel
	opts := adaptiveOptions()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	// 512 trials on 2 workers keeps the feed loop alive for hundreds
	// of milliseconds, so the cancel always lands mid-feed even when a
	// loaded machine delays the timer goroutine.
	tr := TrialRunner{Trials: 512, Workers: 2}
	results, depths, err := tr.RunTrials(ctx, circ, dev, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if results != nil || depths != nil {
		t.Fatalf("cancelled run returned partial slices (len %d, %d)", len(results), len(depths))
	}

	// The Route wrapper must surface the same clean error.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := tr.Route(ctx2, circ, dev, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("Route err = %v, want context.Canceled", err)
	}
}
