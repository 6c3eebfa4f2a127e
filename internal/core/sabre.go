package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/mapping"
)

// Prepared holds the trial-invariant inputs of a multi-trial compile:
// the normalized options, the effective (possibly noise-pruned)
// device, and the widened forward/reversed circuits. Preparing once
// and fanning RunTrialCtx out over many seeds is how TrialRunner
// shares the precomputed state — circuits, dependency tables, and the
// device's cached distance matrices — read-only across a worker pool.
type Prepared struct {
	dev  *arch.Device
	opts Options

	// fwd and rev hold the prepared (DAG-carrying) pass runners for the
	// widened forward and reversed circuits. Both DAGs are
	// trial-invariant; before they moved here, every traversal of every
	// trial rebuilt them from scratch.
	fwd *PassRunner
	rev *PassRunner
}

// Prepare validates circ against dev and precomputes the shared
// read-only state every trial needs: the widened forward and reversed
// circuits, their dependency DAGs, and the device's (possibly
// noise-weighted) distance matrices. The returned value is safe for
// concurrent RunTrialCtx calls.
func Prepare(circ *circuit.Circuit, dev *arch.Device, opts Options) (*Prepared, error) {
	opts = opts.normalized()
	dev = effectiveDevice(dev, opts)
	if circ.NumQubits() > dev.NumQubits() {
		return nil, fmt.Errorf("core: circuit needs %d qubits but device %s has %d",
			circ.NumQubits(), dev.Name(), dev.NumQubits())
	}
	wide := circ
	if circ.NumQubits() < dev.NumQubits() {
		wide = circ.Widen(dev.NumQubits())
	}
	if opts.Noise != nil {
		// Publish the weighted distance matrix before trials fan out so
		// concurrent traversals only ever read the memo.
		dev.WeightedDistancesFor(opts.Noise)
	}
	return &Prepared{
		dev:  dev,
		opts: opts,
		fwd:  NewPassRunner(wide, dev, opts),
		rev:  NewPassRunner(wide.Reverse(), dev, opts),
	}, nil
}

// Options returns the normalized options the trials run under.
func (p *Prepared) Options() Options { return p.opts }

// Device returns the effective device trials route on (the input
// device, or its noise-pruned subdevice).
func (p *Prepared) Device() *arch.Device { return p.dev }

// RunTrialWith executes one random restart: Traversals alternating
// forward/backward passes seeded by Seed+trial (the reverse-traversal
// technique of §IV-C2), returning the final forward pass's result and
// its decomposed depth (the deterministic tie-break key). Safe to call
// concurrently for distinct trials, each with its own scratch (nil
// allocates a private one): the per-worker ownership discipline (one
// Scratch per goroutine, nothing mutable shared across the pool) is
// what keeps parallel trials allocation- and contention-free.
func (p *Prepared) RunTrialWith(trial int, s *Scratch) (*Result, int) {
	res, depth, _ := p.RunTrialCtx(context.Background(), trial, s)
	return res, depth
}

// RunTrialCtx is RunTrialWith with intra-trial cancellation: every
// traversal's SWAP loop polls ctx at round granularity, so even one
// enormous trial dies within a round of the signal instead of routing
// its whole gate list first. A cancelled trial returns ctx.Err() and a
// nil Result.
func (p *Prepared) RunTrialCtx(ctx context.Context, trial int, s *Scratch) (*Result, int, error) {
	if s == nil {
		s = NewScratch() // shared by this trial's traversals at least
	}
	opts := p.opts
	rng := rand.New(rand.NewSource(opts.Seed + int64(trial)))
	layout := mapping.Random(p.dev.NumQubits(), rng)

	var final PassResult
	firstAdded := -1
	for t := 0; t < opts.Traversals; t++ {
		runner := p.fwd
		if t%2 == 1 {
			runner = p.rev
		}
		var err error
		final, err = runner.RunContext(ctx, layout, rng, s)
		if err != nil {
			return nil, 0, err
		}
		layout = final.FinalLayout
		if t == 0 {
			firstAdded = 3 * (final.SwapCount + final.BridgeCount)
		}
	}
	res := &Result{
		Circuit:             final.Circuit,
		InitialLayout:       final.InitialLayout.LogicalToPhysical(),
		FinalLayout:         final.FinalLayout.LogicalToPhysical(),
		SwapCount:           final.SwapCount,
		BridgeCount:         final.BridgeCount,
		AddedGates:          3 * (final.SwapCount + final.BridgeCount),
		FirstTraversalAdded: firstAdded,
		TrialsRun:           trial + 1,
		Stats:               final.Stats,
	}
	return res, final.Circuit.DecomposeSwaps().Depth(), nil
}

// ErrNoTrials is returned by SelectBest when the trial population is
// empty or contains no completed results to select from.
var ErrNoTrials = errors.New("core: no completed trial results to select from")

// BetterTrial reports whether trial a strictly beats trial b under the
// deterministic selection order: fewest added gates, ties broken by
// decomposed depth, remaining ties by lowest trial index (= lowest
// seed, since trial t runs under Seed+t). The index tie-break is
// explicit — not an artifact of iteration order — so selection over
// any subset of a trial population (an adaptive early-exit prefix, a
// cancellation-truncated slice) picks the same winner as selection
// over the full population restricted to that subset.
func BetterTrial(a *Result, aDepth, aTrial int, b *Result, bDepth, bTrial int) bool {
	if a.AddedGates != b.AddedGates {
		return a.AddedGates < b.AddedGates
	}
	if aDepth != bDepth {
		return aDepth < bDepth
	}
	return aTrial < bTrial
}

// SelectBest picks the winning trial deterministically per BetterTrial.
// Nil entries (holes left by cancellation or adaptive early exit) are
// skipped; an empty or all-nil population returns ErrNoTrials instead
// of panicking, so dynamic trial counts degrade to an error the caller
// can handle.
func SelectBest(results []*Result, depths []int) (*Result, error) {
	best := -1
	for trial, res := range results {
		if res == nil {
			continue
		}
		if best < 0 || BetterTrial(res, depths[trial], trial, results[best], depths[best], best) {
			best = trial
		}
	}
	if best < 0 {
		return nil, ErrNoTrials
	}
	return results[best], nil
}

// Compile maps circ onto dev with SABRE: for each of Options.Trials
// random initial mappings it performs Options.Traversals alternating
// forward/backward traversals (the reverse-traversal technique of
// §IV-C2), letting each traversal's final mapping seed the next as an
// ever-better initial mapping; the last forward traversal produces the
// output circuit. The best trial by added gates (ties: output depth)
// wins.
//
// The returned circuit acts on the device's physical qubits and
// contains symbolic SWAPs; Result documents the accounting.
func Compile(circ *circuit.Circuit, dev *arch.Device, opts Options) (*Result, error) {
	return CompileContext(context.Background(), circ, dev, opts)
}

// CompileContext is Compile with cancellation, honored between trials
// and — via RunTrialCtx — inside each trial's SWAP loop at round
// granularity, so a cancelled caller (a dropped HTTP request, say)
// stops burning CPU within one round even mid-way through a huge
// single trial. Returns ctx.Err() when cancelled before a winner
// exists. The trials run one after another on the caller's goroutine
// (TrialRunner{Workers: 1}), so Result.Elapsed is single-threaded
// time, comparable with the single-threaded baselines of Table II.
func CompileContext(ctx context.Context, circ *circuit.Circuit, dev *arch.Device, opts Options) (*Result, error) {
	return TrialRunner{Workers: 1}.Route(ctx, circ, dev, opts)
}

// CompileWithLayout routes circ starting from a caller-chosen initial
// layout, skipping the random restarts and reverse traversals. Useful
// when a good initial mapping is already known (e.g. produced by a
// previous Compile on a related circuit).
func CompileWithLayout(circ *circuit.Circuit, dev *arch.Device, init mapping.Layout, opts Options) (*Result, error) {
	//sabre:nondeterm-ok wall-clock elapsed metric; never feeds routing decisions
	start := time.Now()
	opts = opts.normalized()
	dev = effectiveDevice(dev, opts)
	if circ.NumQubits() > dev.NumQubits() {
		return nil, fmt.Errorf("core: circuit needs %d qubits but device %s has %d",
			circ.NumQubits(), dev.Name(), dev.NumQubits())
	}
	if init.Size() != dev.NumQubits() {
		return nil, fmt.Errorf("core: layout size %d does not match device size %d", init.Size(), dev.NumQubits())
	}
	wide := circ
	if circ.NumQubits() < dev.NumQubits() {
		wide = circ.Widen(dev.NumQubits())
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	pass := RoutePass(wide, dev, init, opts, rng)
	return &Result{
		Circuit:             pass.Circuit,
		InitialLayout:       pass.InitialLayout.LogicalToPhysical(),
		FinalLayout:         pass.FinalLayout.LogicalToPhysical(),
		SwapCount:           pass.SwapCount,
		BridgeCount:         pass.BridgeCount,
		AddedGates:          3 * (pass.SwapCount + pass.BridgeCount),
		FirstTraversalAdded: 3 * (pass.SwapCount + pass.BridgeCount),
		TrialsRun:           1,
		Stats:               pass.Stats,
		Elapsed:             time.Since(start),
	}, nil
}

// effectiveDevice applies noise-driven edge pruning when configured:
// routing then happens on the subdevice without near-dead couplers, so
// the output never touches them (it stays compliant with the full
// device, whose edge set is a superset).
func effectiveDevice(dev *arch.Device, opts Options) *arch.Device {
	if opts.Noise == nil || opts.MaxEdgeError <= 0 {
		return dev
	}
	return arch.PruneUnreliableEdges(dev, opts.Noise, opts.MaxEdgeError)
}

// InitialMapping runs the forward-backward prefix of SABRE and returns
// the improved initial layout without producing a routed circuit. This
// exposes the reverse-traversal technique as a standalone layout pass
// (the role SabreLayout plays in production compilers).
func InitialMapping(circ *circuit.Circuit, dev *arch.Device, opts Options) (mapping.Layout, error) {
	opts = opts.normalized()
	dev = effectiveDevice(dev, opts)
	if circ.NumQubits() > dev.NumQubits() {
		return mapping.Layout{}, fmt.Errorf("core: circuit needs %d qubits but device %s has %d",
			circ.NumQubits(), dev.Name(), dev.NumQubits())
	}
	wide := circ
	if circ.NumQubits() < dev.NumQubits() {
		wide = circ.Widen(dev.NumQubits())
	}
	reversed := wide.Reverse()
	fwd := NewPassRunner(wide, dev, opts)
	rev := NewPassRunner(reversed, dev, opts)
	scratch := NewScratch()

	bestSwaps := -1
	var bestLayout mapping.Layout
	for trial := 0; trial < opts.Trials; trial++ {
		rng := rand.New(rand.NewSource(opts.Seed + int64(trial)))
		layout := mapping.Random(dev.NumQubits(), rng)
		// Forward then backward: the backward pass's final mapping is
		// the improved initial mapping for the original circuit.
		f := fwd.Run(layout, rng, scratch)
		b := rev.Run(f.FinalLayout, rng, scratch)
		// Score the candidate by one evaluation pass.
		probe := fwd.Run(b.FinalLayout, rng, scratch)
		if bestSwaps < 0 || probe.SwapCount < bestSwaps {
			bestSwaps = probe.SwapCount
			bestLayout = b.FinalLayout
		}
	}
	return bestLayout, nil
}
