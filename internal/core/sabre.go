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

	// fwd and rev are the pass runners of the widened forward and
	// reversed circuits, built once and shared by every trial; rev is
	// nil when trials are single forward traversals (Traversals == 1).
	fwd *PassRunner
	rev *PassRunner
}

// Prepare validates circ against dev and precomputes the shared
// read-only state every trial needs: the widened forward and reversed
// circuits, their dependency DAGs, and the device's (possibly
// noise-weighted) distance matrices. Every materialized router shares
// this prologue (pruning, width check, widening). The returned value
// is safe for concurrent RunTrialCtx calls.
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
	// NewPassRunner publishes the memoized noise-weighted distance
	// matrix before trials fan out, so concurrent traversals only ever
	// read it.
	p := &Prepared{dev: dev, opts: opts, fwd: NewPassRunner(wide, dev, opts)}
	if opts.Traversals > 1 {
		p.rev = NewPassRunner(wide.Reverse(), dev, opts)
	}
	return p, nil
}

// Options returns the normalized options the trials run under.
func (p *Prepared) Options() Options { return p.opts }

// Device returns the effective device trials route on (the input
// device, or its noise-pruned subdevice).
func (p *Prepared) Device() *arch.Device { return p.dev }

// Forward returns the runner of the widened forward circuit, for trial
// bodies that drive their own traversals (see TrialRunner.Body).
func (p *Prepared) Forward() *PassRunner { return p.fwd }

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
			firstAdded = final.AddedGates()
		}
	}
	res := final.Result()
	res.FirstTraversalAdded = firstAdded
	res.TrialsRun = trial + 1
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

// CompileWithLayout routes circ with one forward traversal from a
// caller-chosen initial layout, skipping the random restarts and
// reverse traversals. Useful when a good initial mapping is already
// known (e.g. InitialMapping's, or one produced by a previous Compile
// on a related circuit). The traversal is seeded by Options.Seed and
// polls ctx at round granularity.
func CompileWithLayout(ctx context.Context, circ *circuit.Circuit, dev *arch.Device, init mapping.Layout, opts Options) (*Result, error) {
	//sabre:nondeterm-ok wall-clock elapsed metric; never feeds routing decisions
	start := time.Now()
	opts.Traversals = 1 // one forward pass: Prepare skips the reversed runner
	p, err := Prepare(circ, dev, opts)
	if err != nil {
		return nil, err
	}
	if init.Size() != p.dev.NumQubits() {
		return nil, fmt.Errorf("core: layout size %d does not match device size %d", init.Size(), p.dev.NumQubits())
	}
	pass, err := p.fwd.RunContext(ctx, init, rand.New(rand.NewSource(p.opts.Seed)), nil)
	if err != nil {
		return nil, err
	}
	res := pass.Result()
	res.Elapsed = time.Since(start)
	return res, nil
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

// InitialMapping returns the improved initial mapping of SABRE's
// reverse-traversal search (§IV-C2) without the routed circuit — the
// role SabreLayout plays in production compilers. It is a by-product
// of the best-of-N search, not a second search: the initial layout of
// the trial Compile selects under the same options (fewest added
// gates, then depth, then seed), so it always equals
// Compile(...).InitialLayout.
func InitialMapping(ctx context.Context, circ *circuit.Circuit, dev *arch.Device, opts Options) (mapping.Layout, error) {
	res, err := TrialRunner{Workers: 1}.Route(ctx, circ, dev, opts)
	if err != nil {
		return mapping.Layout{}, err
	}
	return mapping.FromLogicalToPhysical(res.InitialLayout)
}
