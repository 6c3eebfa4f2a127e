package route

import (
	"context"
	"math/rand"
	"sort"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/mapping"
)

// TokenSwapRouter implements core.Router with token-swapping
// permutation routing: instead of scoring one SWAP at a time like
// SABRE, each round picks a target position (a coupling edge) for
// every blocked front-layer gate, then realizes the whole repositioning
// with an approximate token-swapping pass — greedy swaps that maximize
// the decrease of the summed distance-to-target potential, with
// untargeted qubits acting as free-moving blanks. This trades SABRE's
// fine-grained lookahead for whole-layer permutation moves, the
// approach used by permutation-based routers.
//
// Options.Trials independent restarts from random initial mappings run
// as the trials of a core.TrialRunner under seeds
// Seed..Seed+Trials-1, and the best routed circuit wins by SABRE's
// rule (fewest added gates, ties by decomposed depth, then lowest
// seed). The router is deterministic for a fixed Options.Seed and
// honors ctx cancellation at restart boundaries.
type TokenSwapRouter struct{}

// Name implements core.Router.
func (TokenSwapRouter) Name() string { return "tokenswap" }

// Route implements core.Router.
func (TokenSwapRouter) Route(ctx context.Context, circ *circuit.Circuit, dev *arch.Device, opts core.Options) (*core.Result, error) {
	opts.Traversals = 1 // Prepare then skips the reversed circuit
	return core.TrialRunner{Workers: 1, Body: tokenSwapRestart}.Route(ctx, circ, dev, opts)
}

// tokenSwapRestart is one restart: a token-swapping traversal of the
// prepared circuit from the trial's seeded random layout.
func tokenSwapRestart(_ context.Context, p *core.Prepared, trial int, _ *core.Scratch) (*core.Result, int, error) {
	rng := rand.New(rand.NewSource(p.Options().Seed + int64(trial)))
	dev := p.Device()
	pass := routeTokenSwap(p.Forward().Circuit(), dev, mapping.Random(dev.NumQubits(), rng))
	return pass.Result(), pass.Circuit.DecomposeSwaps().Depth(), nil
}

// tokenRouter is the mutable state of one token-swapping traversal.
type tokenRouter struct {
	dev  *arch.Device
	circ *circuit.Circuit
	dag  *circuit.DAG

	layout mapping.Layout
	inDeg  []int
	ready  []int // dependencies met, executability unchecked
	front  []int // two-qubit gates blocked on connectivity
	out    []circuit.Gate
	swaps  int

	// tgt[q] is logical qubit q's target physical position for the
	// current token-swapping round, or -1 when q is a blank.
	tgt []int
}

// routeTokenSwap runs one full traversal from the given initial
// layout. circ must already be widened to the device's qubit count.
func routeTokenSwap(circ *circuit.Circuit, dev *arch.Device, init mapping.Layout) core.PassResult {
	tr := &tokenRouter{
		dev:    dev,
		circ:   circ,
		dag:    circuit.BuildDAG(circ),
		layout: init.Clone(),
		tgt:    make([]int, dev.NumQubits()),
	}
	tr.inDeg = tr.dag.InDegrees()
	for i, deg := range tr.inDeg {
		if deg == 0 {
			tr.ready = append(tr.ready, i)
		}
	}
	for {
		tr.drain()
		if len(tr.front) == 0 {
			break
		}
		tr.routeRound()
	}
	out := circuit.NewNamed(circ.Name(), dev.NumQubits())
	out.Append(tr.out...)
	return core.PassResult{
		Circuit:       out,
		InitialLayout: init.Clone(),
		FinalLayout:   tr.layout,
		SwapCount:     tr.swaps,
	}
}

// drain executes every gate whose dependencies are met and whose
// physical qubits (for two-qubit gates) are coupled, maintaining the
// blocked front layer.
func (tr *tokenRouter) drain() {
	for {
		progress := false
		for len(tr.ready) > 0 {
			g := tr.ready[len(tr.ready)-1]
			tr.ready = tr.ready[:len(tr.ready)-1]
			if tr.executable(g) {
				tr.execute(g)
				progress = true
			} else {
				tr.front = append(tr.front, g)
			}
		}
		keep := tr.front[:0]
		for _, g := range tr.front {
			if tr.executable(g) {
				tr.execute(g)
				progress = true
			} else {
				keep = append(keep, g)
			}
		}
		tr.front = keep
		if !progress {
			return
		}
	}
}

func (tr *tokenRouter) executable(g int) bool {
	gate := tr.circ.Gate(g)
	if !gate.TwoQubit() {
		return true
	}
	return tr.dev.Connected(tr.layout.Phys(gate.Q0), tr.layout.Phys(gate.Q1))
}

func (tr *tokenRouter) execute(g int) {
	gate := tr.circ.Gate(g)
	tr.out = append(tr.out, gate.Remap(tr.layout.Phys))
	for _, s := range tr.dag.Successors(g) {
		tr.inDeg[s]--
		if tr.inDeg[s] == 0 {
			tr.ready = append(tr.ready, s)
		}
	}
}

// routeRound assigns a destination edge to every blocked front gate it
// can reserve one for, then runs the token swapper to realize all the
// assignments at once. The first front gate always gets an edge, so
// each round unblocks at least one gate and the traversal terminates.
func (tr *tokenRouter) routeRound() {
	// Deterministic assignment order: gate index, i.e. circuit order.
	front := append([]int(nil), tr.front...)
	sort.Ints(front)

	for q := range tr.tgt {
		tr.tgt[q] = -1
	}
	reserved := make([]bool, tr.dev.NumQubits())
	assigned := 0
	for _, gi := range front {
		g := tr.circ.Gate(gi)
		pa, pb := tr.layout.Phys(g.Q0), tr.layout.Phys(g.Q1)
		bestEdge, bestCost, flip := arch.Edge{}, -1, false
		for _, e := range tr.dev.Edges() {
			if reserved[e.A] || reserved[e.B] {
				continue
			}
			straight := tr.dev.Distance(pa, e.A) + tr.dev.Distance(pb, e.B)
			crossed := tr.dev.Distance(pa, e.B) + tr.dev.Distance(pb, e.A)
			cost, crossedBetter := straight, false
			if crossed < straight {
				cost, crossedBetter = crossed, true
			}
			// Strict improvement keeps the earliest edge on ties:
			// Edges() order is canonical, so the choice is
			// deterministic.
			if bestCost < 0 || cost < bestCost {
				bestEdge, bestCost, flip = e, cost, crossedBetter
			}
		}
		if bestCost < 0 {
			continue // every remaining edge endpoint is reserved
		}
		reserved[bestEdge.A], reserved[bestEdge.B] = true, true
		if flip {
			tr.tgt[g.Q0], tr.tgt[g.Q1] = bestEdge.B, bestEdge.A
		} else {
			tr.tgt[g.Q0], tr.tgt[g.Q1] = bestEdge.A, bestEdge.B
		}
		assigned++
	}
	if assigned == 0 {
		// Unreachable (the first gate always finds a free edge), but
		// never loop silently if the invariant breaks.
		tr.forceOldest(front[0])
		return
	}
	tr.swapToTargets(front[0])
}

// potential is the summed distance of every targeted token to its
// destination — the objective the greedy swapper descends.
func (tr *tokenRouter) potential() int {
	sum := 0
	for q, t := range tr.tgt {
		if t >= 0 {
			sum += tr.dev.Distance(tr.layout.Phys(q), t)
		}
	}
	return sum
}

// swapDelta is the change in potential from swapping the tokens on
// physical qubits a and b.
func (tr *tokenRouter) swapDelta(a, b int) int {
	delta := 0
	if t := tr.tgt[tr.layout.Log(a)]; t >= 0 {
		delta += tr.dev.Distance(b, t) - tr.dev.Distance(a, t)
	}
	if t := tr.tgt[tr.layout.Log(b)]; t >= 0 {
		delta += tr.dev.Distance(a, t) - tr.dev.Distance(b, t)
	}
	return delta
}

// swapToTargets realizes the current target assignment with greedy
// token swapping: apply the edge swap with the most negative potential
// delta; when only zero-delta swaps remain, step the lowest misplaced
// token along a shortest path toward its target. A stall bound guards
// the (rare) oscillating local minima by falling back to deterministic
// shortest-path routing of the oldest blocked gate.
func (tr *tokenRouter) swapToTargets(oldest int) {
	stall, maxStall := 0, tr.dev.Diameter()+4
	// The potential is maintained incrementally: every change to it
	// goes through a swap whose exact delta is already in hand.
	for pot := tr.potential(); pot > 0; {
		bestEdge, bestDelta := arch.Edge{}, 1
		for _, e := range tr.dev.Edges() {
			if d := tr.swapDelta(e.A, e.B); d < bestDelta {
				bestEdge, bestDelta = e, d
			}
		}
		if bestDelta < 0 {
			tr.applySwap(bestEdge)
			pot += bestDelta
			stall = 0
			continue
		}
		// No strictly improving swap: walk the lowest misplaced token
		// one step along a shortest path (its own distance drops by 1;
		// the displaced token may pay it back, hence the stall bound).
		stepped := false
		for q, t := range tr.tgt {
			if t < 0 || tr.layout.Phys(q) == t {
				continue
			}
			path := tr.dev.ShortestPath(tr.layout.Phys(q), t)
			e := arch.NewEdge(path[0], path[1])
			pot += tr.swapDelta(e.A, e.B)
			tr.applySwap(e)
			stepped = true
			break
		}
		stall++
		if !stepped || stall > maxStall {
			tr.forceOldest(oldest)
			return
		}
	}
}

// forceOldest abandons the round's targets and routes the oldest
// blocked gate directly: swap its control along a shortest path until
// adjacent to its target. Bounded by the device diameter and always
// unblocks a gate.
func (tr *tokenRouter) forceOldest(g int) {
	gate := tr.circ.Gate(g)
	path := tr.dev.ShortestPath(tr.layout.Phys(gate.Q0), tr.layout.Phys(gate.Q1))
	for i := 0; i+2 < len(path); i++ {
		tr.applySwap(arch.NewEdge(path[i], path[i+1]))
	}
}

func (tr *tokenRouter) applySwap(e arch.Edge) {
	tr.out = append(tr.out, circuit.Swap(e.A, e.B))
	tr.layout.SwapPhysical(e.A, e.B)
	tr.swaps++
}
