package route

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/mapping"
)

// AnnealRouter implements core.Router with simulated annealing over
// the space SABRE's restarts only sample: candidate initial mappings,
// each scored by the SWAP-insertion cost of one deterministic routing
// traversal. Neighbouring states differ by one transposition of the
// layout; worse states are accepted with probability exp(-Δ/T) under a
// geometric cooling schedule, so the chain can climb out of the local
// minima a greedy restart is stuck with. Options.Trials independent
// chains run as the trials of a core.TrialRunner (chain c under seed
// Seed+c), so the best routed circuit wins by the same rule as SABRE's
// restarts (fewest added gates, ties by decomposed depth, then lowest
// seed).
//
// The router is deterministic for a fixed Options.Seed and honors ctx
// cancellation at every annealing step.
type AnnealRouter struct {
	// Iterations is the annealing step count per chain (0 = 64).
	Iterations int

	// Chains overrides Options.Trials as the number of independent
	// annealing chains (0 = Options.Trials).
	Chains int
}

// defaultAnnealIterations balances search quality against the cost of
// one full routing traversal per step.
const defaultAnnealIterations = 64

// Name implements core.Router.
func (AnnealRouter) Name() string { return "anneal" }

// Route implements core.Router.
func (r AnnealRouter) Route(ctx context.Context, circ *circuit.Circuit, dev *arch.Device, opts core.Options) (*core.Result, error) {
	opts.Traversals = 1 // every step is one forward traversal
	return core.TrialRunner{Trials: r.Chains, Workers: 1, Body: r.chain}.Route(ctx, circ, dev, opts)
}

// chain runs one annealing chain from its seeded random layout and
// returns the best state it visited (cost, then decomposed depth, then
// visit order). Every step re-routes the prepared forward circuit on
// the same Scratch, so the DAG is built once per search.
func (r AnnealRouter) chain(ctx context.Context, p *core.Prepared, chain int, s *core.Scratch) (*core.Result, int, error) {
	iters := r.Iterations
	if iters <= 0 {
		iters = defaultAnnealIterations
	}
	runner := p.Forward()
	n := p.Device().NumQubits()
	rng := rand.New(rand.NewSource(p.Options().Seed + int64(chain)))
	cur := mapping.Random(n, rng)
	best, err := runner.RunContext(ctx, cur, rng, s)
	if err != nil {
		return nil, 0, err
	}
	curCost, bestCost := best.AddedGates(), best.AddedGates()
	bestDepth := best.Circuit.DecomposeSwaps().Depth()

	if n < 2 {
		// No transposition exists on a single-qubit device; the chain
		// is just its starting traversal.
		return best.Result(), bestDepth, nil
	}
	// Temperature is scaled to the chain's starting cost so the early
	// acceptance rate is workload-independent; it then cools
	// geometrically to ~2% of the start.
	temp := math.Max(1, float64(curCost)/3)
	cooling := math.Pow(0.02, 1/math.Max(1, float64(iters-1)))
	for i := 0; i < iters; i++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		cand := cur.Clone()
		a := rng.Intn(n)
		b := rng.Intn(n - 1)
		if b >= a {
			b++
		}
		cand.SwapPhysical(a, b)
		pass, err := runner.RunContext(ctx, cand, rng, s)
		if err != nil {
			return nil, 0, err
		}
		cost := pass.AddedGates()
		if cost <= curCost || rng.Float64() < math.Exp(float64(curCost-cost)/temp) {
			cur, curCost = cand, cost
			// Depth is computed only when the cost can win; a cost tie
			// wins only on strictly smaller depth, so the earliest
			// visit keeps the remaining ties.
			if cost <= bestCost {
				if depth := pass.Circuit.DecomposeSwaps().Depth(); cost < bestCost || depth < bestDepth {
					best, bestCost, bestDepth = pass, cost, depth
				}
			}
		}
		temp *= cooling
	}
	return best.Result(), bestDepth, nil
}
